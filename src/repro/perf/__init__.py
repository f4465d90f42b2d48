"""repro.perf — deterministic parallel trial execution.

Every experiment in the reproduction runs seeded, independent trials:
:func:`repro.experiments.harness.trial_seeds` and
:func:`repro.sim.rng.derive_seed` give each trial its own random
stream, so trials are embarrassingly parallel *by construction*.  This
package exploits that structure without giving up a single bit of
reproducibility:

- :func:`pmap_trials` — an order-preserving process-pool map.  Results
  come back in submission order, so tables and confidence intervals
  are byte-identical to a serial run; it degrades gracefully to
  in-process execution when ``jobs=1``, when the work is not
  picklable, or when a process pool cannot be created.
- :func:`set_default_jobs` / :func:`default_jobs` — a process-wide
  default worker count, set once by ``python -m repro run --jobs N``
  and consulted by every trial loop that does not pass ``jobs``
  explicitly.
- :func:`merge_telemetry` — folds per-worker JSONL telemetry files
  into one validated stream through a
  :class:`repro.obs.telemetry.TelemetrySink`; :func:`merged_metrics`
  consolidates the metric snapshots embedded in those files into one
  :func:`repro.obs.metrics.merge_snapshots` result, deterministically
  in path order.

Isolation rule: like :mod:`repro.obs`, this package is harness-side
machinery.  Protocol modules (anything defining a
:class:`repro.sim.protocol.Protocol` subclass) must never import it —
lint rule R4 enforces the boundary.
"""

from repro._lazy import lazy_exports

#: Every exported name and the module that defines it, imported on first
#: use: ``from repro.perf import pmap_trials`` loads no telemetry code.
_EXPORTS = {
    "default_jobs": "repro.perf.executor",
    "pmap_trials": "repro.perf.executor",
    "pool_fingerprint": "repro.perf.executor",
    "resolve_jobs": "repro.perf.executor",
    "set_default_jobs": "repro.perf.executor",
    "merge_telemetry": "repro.perf.merge",
    "merged_metrics": "repro.perf.merge",
    "worker_telemetry_path": "repro.perf.merge",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
