"""Baselines the paper compares against.

- :mod:`repro.baselines.rendezvous` — non-relaying randomized-rendezvous
  broadcast, ``O((c^2/k) lg n)`` (Section 1).
- :mod:`repro.baselines.aggregation` — rendezvous-based aggregation,
  ``O(c^2 n / k)`` (Section 1).
- :mod:`repro.baselines.hopping` — global-label lockstep scan that beats
  COGCAST when ``c >> n`` (Section 6 discussion).
- :mod:`repro.baselines.runners` — the engine-driving measurement
  harnesses, kept out of the protocol modules (lint rule R4).
"""

from repro._lazy import lazy_exports

#: Every exported name and the module that defines it, imported on first
#: use: importing a protocol module loads no runner and no engine.
_EXPORTS = {
    "BaselineAggregationResult": "repro.baselines.aggregation",
    "RendezvousCollector": "repro.baselines.aggregation",
    "RendezvousReporter": "repro.baselines.aggregation",
    "StayAndScanBroadcast": "repro.baselines.deterministic",
    "stay_and_scan_pairwise": "repro.baselines.deterministic",
    "HoppingTogether": "repro.baselines.hopping",
    "RendezvousBroadcast": "repro.baselines.rendezvous",
    "pairwise_rendezvous_slots": "repro.baselines.rendezvous",
    "run_hopping_together": "repro.baselines.runners",
    "run_rendezvous_aggregation": "repro.baselines.runners",
    "run_rendezvous_broadcast": "repro.baselines.runners",
    "run_stay_and_scan_broadcast": "repro.baselines.runners",
    "PairSetup": "repro.baselines.seeded",
    "make_pair": "repro.baselines.seeded",
    "repeated_rendezvous_gaps": "repro.baselines.seeded",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
