"""Streaming observability for the simulation engine.

The paper's claims are asymptotic slot bounds; understanding *why* a
run took the slots it did previously required recording a full
:class:`~repro.sim.trace.EventTrace` (memory-heavy, opt-in) and
analysing it after the fact.  This package provides the always-on,
constant-memory alternative:

- **Run totals** — ``Engine.run(totals=True)`` returns what the run's
  channel events add up to (:class:`~repro.sim.engine.RunTotals`) on
  its result; every kernel keeps them, so asking never costs the fast
  or columnar kernel, and :func:`count_run` folds them into a metrics
  registry.  Per-event observers are *event sinks* on the engine's
  ``trace`` instead: the spans and the mediator-uniqueness watchdog
  below.
- **Streaming aggregators** (:class:`StreamingStat`,
  :class:`FixedHistogram`) — constant-memory moments and buckets, the
  building blocks of the metrics histograms, span statistics and query
  stats.
- **Spans** (:class:`SpanProbe`, :class:`Span`) — the causal layer, a
  streaming event sink: reconstructs COGCAST's distribution tree (who
  informed whom, when, on which channel: a
  :class:`~repro.core.tree.DistributionTree` plus each node's
  :class:`~repro.core.tree.InformEdge`) and COGCOMP's four phase spans
  plus per-cluster aggregation conversations from engine ground truth;
  :func:`chrome_trace` / :func:`write_chrome_trace` export the timeline
  as Chrome-trace / Perfetto JSON (``repro obs export-trace``).
- **Watchdogs** (:class:`WatchdogProbe` and the concrete
  :class:`SlotBudgetWatchdog`, :class:`MediatorUniquenessWatchdog`,
  :class:`ClusterSizeAgreementWatchdog`, :class:`InformedSetWatchdog`)
  — check the paper's invariants and raise structured
  :class:`Anomaly` records into telemetry (``kind="anomaly"``) instead
  of crashing the run.  Three decide from the finished run (the
  protocols' final state and the network), so a checked run keeps the
  fast or columnar kernel; :class:`MediatorUniquenessWatchdog` is an
  event sink, because a forged announce shows only on the channel.
- **Telemetry** (:class:`TelemetrySink`) — machine-readable JSONL run
  manifests (seed, ``n``/``c``/``k``/``C``, protocol, slot count,
  outcome, metrics, span summaries) emitted by the runner
  harnesses, plus a ``python -m repro obs`` CLI that validates, tails,
  and summarizes telemetry files and surfaces anomalies.
- **Metrics** (:class:`MetricsRegistry` with :class:`Counter`,
  :class:`Gauge`, :class:`Histogram`) — a process-safe, constant-memory
  instrument registry with label sets, snapshot/restore/merge (so
  :func:`repro.perf.pmap_trials` workers consolidate
  deterministically), a Prometheus text exporter
  (:func:`render_prometheus`), the run-totals fold (:func:`count_run`,
  whose ``sim_*`` counters equal
  :func:`~repro.sim.metrics.compute_metrics` over a full trace of the
  same run), and a :class:`ResourceSampler` (RSS, CPU time, GC) whose
  deltas ride on run records.
- **Regression plane** (:mod:`repro.obs.regress`) — ``repro obs diff``
  compares two telemetry files per metric (protocol-class series must
  match; timing-class series are reported with bootstrap CIs), and
  ``repro bench check`` gates the BENCH_*.json trajectory with
  machine-fingerprinted, CI-backed per-benchmark baselines.
- **Run store & queries** (:mod:`repro.obs.provenance`,
  :mod:`repro.obs.store`, :mod:`repro.obs.query`) — every record is
  stamped with a provenance block (canonical config hash + code
  version), ``repro obs ingest`` indexes shards into an append-only
  content-addressed :class:`RunStore` keyed by ``(config hash, seed,
  code version)``, ``repro obs query`` filters/groups/aggregates the
  manifest (:func:`run_query`), ``repro obs follow`` live-tails a
  growing file (:func:`follow_file`), and ``repro obs explain`` joins
  a watchdog anomaly back to its run's span tree and metrics snapshot
  (:func:`explain_records`).

Everything here is analysis-side: protocols never see run totals,
sinks or registries (lint rule R4 forbids protocol modules from
importing this package).
"""

from repro._lazy import lazy_exports

#: Every exported name and the module that defines it, imported on first
#: use: ``from repro.obs import RunStore`` loads the store, not the spans.
_EXPORTS = {
    "FixedHistogram": "repro.obs.aggregators",
    "StreamingStat": "repro.obs.aggregators",
    "METRICS_SCHEMA_VERSION": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsError": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "ResourceSampler": "repro.obs.metrics",
    "count_run": "repro.obs.metrics",
    "merge_snapshots": "repro.obs.metrics",
    "render_prometheus": "repro.obs.metrics",
    "validate_snapshot": "repro.obs.metrics",
    "chrome_trace": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "CODE_VERSION": "repro.obs.provenance",
    "canonical_json": "repro.obs.provenance",
    "config_hash": "repro.obs.provenance",
    "detect_code_version": "repro.obs.provenance",
    "provenance_block": "repro.obs.provenance",
    "validate_provenance": "repro.obs.provenance",
    "Filter": "repro.obs.query",
    "explain_records": "repro.obs.query",
    "follow_file": "repro.obs.query",
    "parse_filters": "repro.obs.query",
    "render_rows": "repro.obs.query",
    "run_query": "repro.obs.query",
    "STORE_SCHEMA_VERSION": "repro.obs.store",
    "IngestReport": "repro.obs.store",
    "RunStore": "repro.obs.store",
    "manifest_entry": "repro.obs.store",
    "Span": "repro.obs.spans",
    "SpanProbe": "repro.obs.spans",
    "payload_kind": "repro.obs.spans",
    "TELEMETRY_SCHEMA_VERSION": "repro.obs.telemetry",
    "TelemetryError": "repro.obs.telemetry",
    "TelemetrySink": "repro.obs.telemetry",
    "anomaly_record": "repro.obs.telemetry",
    "campaign_record": "repro.obs.telemetry",
    "experiment_record": "repro.obs.telemetry",
    "read_telemetry": "repro.obs.telemetry",
    "run_record": "repro.obs.telemetry",
    "summarize_records": "repro.obs.telemetry",
    "validate_record": "repro.obs.telemetry",
    "Anomaly": "repro.obs.watchdog",
    "ClusterSizeAgreementWatchdog": "repro.obs.watchdog",
    "InformedSetWatchdog": "repro.obs.watchdog",
    "MediatorUniquenessWatchdog": "repro.obs.watchdog",
    "SlotBudgetWatchdog": "repro.obs.watchdog",
    "WatchdogProbe": "repro.obs.watchdog",
    "flush_anomalies": "repro.obs.watchdog",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
