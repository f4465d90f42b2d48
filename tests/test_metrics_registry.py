"""Tests for repro.obs.metrics: instruments, snapshots, merge, export.

Covers the registry's declaration contract (idempotent, conflicting
re-declarations rejected), each instrument's semantics, the
snapshot/restore/merge cycle the parallel layer depends on, Prometheus
text rendering, the run totals every engine kernel returns and
:func:`count_run`, which folds them into a registry (checked against
:func:`~repro.sim.metrics.compute_metrics` ground truth, and
byte-identical across the fast, general and columnar kernels), the
:class:`ResourceSampler`, and the telemetry embedding of snapshots.
"""

from __future__ import annotations

import functools
import io
import json
from types import SimpleNamespace

import pytest

import repro.core.runners
from repro.assignment import shared_core
from repro.baselines.runners import run_rendezvous_broadcast
from repro.core import CogCast
from repro.core.runners import (
    run_data_aggregation,
    run_gossip,
    run_local_broadcast,
    run_protocol,
)
from repro.obs import TelemetrySink
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsError,
    MetricsRegistry,
    ResourceSampler,
    count_run,
    merge_snapshots,
    render_prometheus,
    validate_snapshot,
)
from repro.obs.telemetry import read_telemetry, run_record, validate_record
from repro.sim.actions import Listen
from repro.sim.adversary import RandomJammer
from repro.sim.backends import AllInformed, numpy_available
from repro.sim.channels import Network
from repro.sim.engine import RunResult, RunTotals, build_engine
from repro.sim.metrics import compute_metrics
from repro.sim.protocol import Protocol
from repro.sim.rng import derive_rng
from repro.sim.trace import EventTrace
from repro.types import ProtocolViolationError


def small_network(seed: int = 0, n: int = 10, c: int = 5, k: int = 2) -> Network:
    """A small static network for instrumented runs."""
    return Network.static(shared_core(n, c, k, derive_rng(seed, "metrics-test")))


class TestRegistryDeclarations:
    def test_counter_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "hits", labels=("proto",))
        second = registry.counter("hits", "hits", labels=("proto",))
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "")
        with pytest.raises(MetricsError):
            registry.gauge("x", "")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "", labels=("a",))
        with pytest.raises(MetricsError):
            registry.counter("x", "", labels=("b",))

    def test_category_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", "", category="protocol")
        with pytest.raises(MetricsError):
            registry.counter("x", "", category="timing")

    def test_histogram_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", "", width=1.0, buckets=8)
        with pytest.raises(MetricsError):
            registry.histogram("h", "", width=2.0, buckets=8)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("1bad", "")
        with pytest.raises(MetricsError):
            registry.counter("has space", "")
        with pytest.raises(MetricsError):
            registry.counter("ok", "", labels=("bad-label",))

    def test_invalid_category_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("x", "", category="vibes")


class TestInstrumentSemantics:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "", labels=("proto",))
        counter.inc(proto="a")
        counter.inc(2, proto="a")
        counter.inc(5, proto="b")
        assert counter.value(proto="a") == 3
        assert counter.value(proto="b") == 5

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("c", "").inc(-1)

    def test_counter_rejects_wrong_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "", labels=("proto",))
        with pytest.raises(MetricsError):
            counter.inc(other="x")
        with pytest.raises(MetricsError):
            counter.inc()

    def test_gauge_tracks_extremes(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "")
        gauge.set(5)
        gauge.set(1)
        gauge.set(3)
        series = gauge.series()
        assert gauge.value() == 3
        assert series[0][1]["min"] == 1
        assert series[0][1]["max"] == 5

    def test_gauge_inc_adjusts(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "")
        gauge.inc(2)
        gauge.inc(-0.5)
        assert gauge.value() == 1.5

    def test_histogram_constant_memory_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "", width=1.0, buckets=4)
        for value in (0.5, 1.5, 2.5, 100.0):
            histogram.observe(value)
        stat = histogram.stat()
        assert stat.count == 4
        assert stat.minimum == 0.5
        assert stat.maximum == 100.0


class TestSnapshotRestoreMerge:
    def populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("hits", "hit count", labels=("proto",)).inc(3, proto="a")
        gauge = registry.gauge("depth", "queue depth", category="timing")
        gauge.set(4)
        gauge.set(2)
        histogram = registry.histogram("lat", "latency", width=0.5, buckets=4)
        histogram.observe(0.3)
        histogram.observe(1.7)
        return registry

    def test_snapshot_validates_and_round_trips(self):
        registry = self.populated()
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA_VERSION
        assert validate_snapshot(snapshot) == []
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.snapshot() == snapshot

    def test_snapshot_is_json_ready_and_deterministic(self):
        one = json.dumps(self.populated().snapshot(), sort_keys=True)
        two = json.dumps(self.populated().snapshot(), sort_keys=True)
        assert one == two

    def test_merge_adds_counters_and_histograms(self):
        merged = MetricsRegistry.from_snapshot(self.populated().snapshot())
        merged.merge(self.populated())
        assert merged.counter("hits", "", labels=("proto",)).value(proto="a") == 6
        assert merged.histogram("lat", "", width=0.5, buckets=4).stat().count == 4

    def test_merge_gauge_last_write_wins_with_folded_extremes(self):
        first = MetricsRegistry()
        first.gauge("g", "").set(10)
        second = MetricsRegistry()
        second.gauge("g", "").set(1)
        first.merge(second)
        gauge = first.gauge("g", "")
        assert gauge.value() == 1
        assert gauge.series()[0][1]["max"] == 10

    def test_merge_snapshots_order_independent_for_counters(self):
        a = MetricsRegistry()
        a.counter("c", "").inc(1)
        b = MetricsRegistry()
        b.counter("c", "").inc(2)
        ab = merge_snapshots([a.snapshot(), b.snapshot()])
        ba = merge_snapshots([b.snapshot(), a.snapshot()])
        assert ab == ba

    def test_merged_snapshot_equals_single_stream(self):
        # Merging keeps a zero extreme: 0.0 is a sample, not a missing one.
        single = MetricsRegistry()
        parts = []
        for value in (0.0, 3.0):
            part = MetricsRegistry()
            for registry in (single, part):
                registry.histogram("lat", "latency").observe(value)
            parts.append(part.snapshot())
        assert merge_snapshots(parts) == single.snapshot()
        assert merge_snapshots(reversed(parts)) == single.snapshot()

    def test_merge_empty_iterable_yields_empty_snapshot(self):
        snapshot = merge_snapshots([])
        assert snapshot == {"schema": METRICS_SCHEMA_VERSION, "metrics": {}}
        assert validate_snapshot(snapshot) == []

    def test_from_snapshot_rejects_garbage(self):
        with pytest.raises(MetricsError):
            MetricsRegistry.from_snapshot({"schema": 999, "metrics": {}})
        assert validate_snapshot("nope") != []
        assert validate_snapshot({"schema": 1}) != []
        assert validate_snapshot(
            {"schema": 1, "metrics": {"x": {"type": "sparkline", "series": []}}}
        ) != []


class TestPrometheusExport:
    def test_counter_and_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.counter("hits", "hit count", labels=("proto",)).inc(3, proto="a")
        registry.gauge("depth", "queue depth").set(2.5)
        text = render_prometheus(registry)
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{proto="a"} 3' in text
        assert "depth 2.5" in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "", width=1.0, buckets=2)
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_render_accepts_snapshot_and_escapes_labels(self):
        registry = MetricsRegistry()
        registry.counter("c", "with \"quotes\"", labels=("l",)).inc(1, l='x"y')
        text = render_prometheus(registry.snapshot())
        assert 'l="x\\"y"' in text
        assert text.endswith("\n")


def sim_instruments(registry: MetricsRegistry) -> SimpleNamespace:
    """The ``sim_*`` instruments ``count_run`` keeps, without the prefix."""
    return SimpleNamespace(
        **{
            name.removeprefix("sim_"): instrument
            for name, instrument in registry.instruments().items()
            if name.startswith("sim_")
        }
    )


class TestMetricsProbe:
    """A runner given ``metrics=`` counts its run with ``count_run``."""

    def test_probe_matches_trace_ground_truth(self):
        registry = MetricsRegistry()
        trace = EventTrace()
        network = small_network()
        result = run_local_broadcast(
            network, seed=3, max_slots=60, trace=trace, metrics=registry
        )
        truth = compute_metrics(trace)
        sim = sim_instruments(registry)
        assert sim.slots.value(protocol="cogcast") == result.slots
        assert sim.broadcasts.value(protocol="cogcast") == truth.transmissions
        assert sim.collisions.value(protocol="cogcast") == truth.collisions
        assert sim.deliveries.value(protocol="cogcast") == truth.deliveries
        assert sim.wasted_listens.value(protocol="cogcast") == truth.wasted_listens
        assert (
            sim.peak_contention.value(protocol="cogcast")
            == truth.peak_channel_contention
        )

    def test_same_seed_runs_produce_equal_snapshots(self):
        snapshots = []
        for _ in range(2):
            registry = MetricsRegistry()
            run_local_broadcast(
                small_network(), seed=7, max_slots=60, metrics=registry
            )
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_attaching_metrics_keeps_fast_path(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        registry = MetricsRegistry()
        with TelemetrySink(path) as sink:
            run_local_broadcast(
                small_network(),
                seed=0,
                max_slots=60,
                metrics=registry,
                telemetry=sink,
            )
            run_local_broadcast(
                small_network(), seed=0, max_slots=60, telemetry=sink
            )
        records = read_telemetry(path)
        assert records[0]["fast_path"] is True
        assert records[1]["fast_path"] is True
        assert records[0]["slots"] == records[1]["slots"]
        general = MetricsRegistry()
        force_general_kernel(monkeypatch)
        run_local_broadcast(small_network(), seed=0, max_slots=60, metrics=general)
        assert general.snapshot() == registry.snapshot() == records[0]["metrics"]


def force_general_kernel(monkeypatch):
    """Make every runner build the exact engine with its fast kernel off."""
    monkeypatch.setattr(
        repro.core.runners,
        "build_engine",
        functools.partial(build_engine, fast_path=False),
    )


#: Runner name -> call taking ``(network, **instruments)``.
KERNEL_PARITY_RUNNERS = {
    "cogcast": lambda network, **kw: run_local_broadcast(
        network, max_slots=5000, **kw
    ),
    "cogcomp": lambda network, **kw: run_data_aggregation(
        network, list(range(network.num_nodes)), **kw
    ),
    "gossip": lambda network, **kw: run_gossip(
        network, {0: "a", 1: "b"}, max_slots=5000, **kw
    ),
    "rendezvous-broadcast": lambda network, **kw: run_rendezvous_broadcast(
        network, max_slots=50_000, **kw
    ),
}


#: Kernel name -> the ``build_engine`` options that select it.
KERNELS = {
    "fast": {},
    "general": {"fast_path": False},
    "vector-replay": {"backend": "vector-replay"},
}


def _cogcast_engine(kernel="fast", **options):
    if kernel == "vector-replay" and not numpy_available():
        pytest.skip("numpy not installed")
    return build_engine(
        small_network(),
        lambda view: CogCast(view, is_source=view.node_id == 0),
        seed=2,
        **KERNELS[kernel],
        **options,
    )


def _kernel_taken(engine) -> str:
    """The kernel *engine*'s most recent run took."""
    if getattr(engine, "vector_engaged", False):
        return "vector-replay"
    return "fast" if engine.fast_path_engaged else "general"


def _jammer() -> RandomJammer:
    universe = sorted(small_network().assignment_at(0).universe)
    return RandomJammer(universe, 2, derive_rng(9, "metrics-test-jam"))


def trace_totals(trace: EventTrace) -> RunTotals:
    """What a run's channel events add up to, as ``compute_metrics`` folds them."""
    contention, deliveries, wasted_listens = [], 0, 0
    for event in trace:
        if event.broadcasters:
            contention.append(len(event.broadcasters))
        live = [node for node in event.listeners if node not in event.jammed_nodes]
        if event.winner is None:
            wasted_listens += len(live)
        else:
            deliveries += len(live)
        wasted_listens += len(event.listeners) - len(live)
    return RunTotals(tuple(contention), deliveries, wasted_listens)


class TestRunTotals:
    """``run(totals=True)`` on every kernel, and ``count_run`` over it."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("runner", sorted(KERNEL_PARITY_RUNNERS))
    def test_snapshot_identical_across_kernels(self, runner, seed, monkeypatch):
        rng = derive_rng(seed, "kernel-parity")
        network = Network.static(shared_core(12, 6, 2, rng).shuffled_labels(rng))
        kernels = ["fast", "vector-replay"] if numpy_available() else ["fast"]
        kernels.append("general")  # last: its patch lasts to the end of the test
        snapshots, records = {}, {}
        for kernel in kernels:
            if kernel == "general":
                force_general_kernel(monkeypatch)
            registry, handle = MetricsRegistry(), io.StringIO()
            KERNEL_PARITY_RUNNERS[runner](
                network,
                seed=seed,
                metrics=registry,
                telemetry=TelemetrySink(handle),
                backend="vector-replay" if kernel == "vector-replay" else "exact",
            )
            snapshots[kernel] = json.dumps(registry.snapshot(), sort_keys=True)
            records[kernel] = json.loads(handle.getvalue())
        assert records["fast"]["fast_path"] is True
        assert records["general"]["fast_path"] is False
        if "vector-replay" in records and runner in ("cogcast", "gossip"):
            # Both have a columnar program, so these runs took it.
            assert records["vector-replay"]["fast_path"] is False
            assert "vector_fallback_reason" not in records["vector-replay"]
        assert len(set(snapshots.values())) == 1, snapshots

    @pytest.mark.parametrize("kernel", [*KERNELS, "jammed-general"])
    def test_totals_equal_the_trace_fold(self, kernel):
        """Every kernel returns what a trace of the same run adds up to."""
        jammed = kernel == "jammed-general"
        taken = "general" if jammed else kernel
        jam = {"jammer": _jammer()} if jammed else {}
        engine = _cogcast_engine(taken, **jam)
        result = engine.run(200, stop_when=AllInformed(engine.protocols), totals=True)
        assert _kernel_taken(engine) == taken
        trace = EventTrace()
        jam = {"jammer": _jammer()} if jammed else {}
        traced = _cogcast_engine("general", trace=trace, **jam)
        assert traced.run(200, stop_when=AllInformed(traced.protocols)).slots == (
            result.slots
        )
        assert result.totals == trace_totals(trace)
        assert max(result.totals.contention) >= 2  # the run had collisions
        assert any(event.jammed_nodes for event in trace) is jammed

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_totals_unless_asked(self, kernel):
        engine = _cogcast_engine(kernel)
        result = engine.run(200, stop_when=AllInformed(engine.protocols))
        assert _kernel_taken(engine) == kernel
        assert result.totals is None

    def test_count_run_refuses_a_result_without_totals(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="totals=True"):
            count_run(registry, RunResult(3, True, True), protocol="cogcast")
        assert registry.snapshot()["metrics"] == {}

    @pytest.mark.parametrize("kernel", ["fast", "general"])
    def test_raising_run_counts_and_records_nothing(self, kernel, monkeypatch):
        """A run whose kernel raises leaves the registry and telemetry as they were."""

        class OutOfRange(Protocol):
            def __init__(self, view):
                self.view = view

            def begin_slot(self, slot):
                return Listen(self.view.num_channels)

            def end_slot(self, slot, outcome):
                return None

        if kernel == "general":
            force_general_kernel(monkeypatch)
        registry, handle = MetricsRegistry(), io.StringIO()
        with pytest.raises(ProtocolViolationError):
            run_protocol(
                small_network(),
                OutOfRange,
                protocol="out-of-range",
                seed=0,
                max_slots=5,
                stop=lambda protocols: None,
                metrics=registry,
                telemetry=TelemetrySink(handle),
            )
        assert registry.snapshot()["metrics"] == {}
        assert handle.getvalue() == ""


class TestResourceSampler:
    def test_delta_requires_start(self):
        with pytest.raises(MetricsError):
            ResourceSampler().delta()

    def test_delta_keys_and_types(self):
        sampler = ResourceSampler().start()
        list(range(10000))
        delta = sampler.delta()
        assert set(delta) >= {"gc_collections", "gc_objects"}
        assert all(isinstance(value, float) for value in delta.values())

    def test_context_manager_and_to_registry(self):
        registry = MetricsRegistry()
        with ResourceSampler() as sampler:
            values = sampler.to_registry(registry)
        for key in values:
            gauge = registry.gauge(f"process_{key}", "", category="timing")
            assert gauge.value() == values[key]


class TestTelemetryEmbedding:
    def test_run_record_embeds_and_validates(self):
        registry = MetricsRegistry()
        registry.counter("c", "").inc()
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=5,
            outcome="completed",
            metrics=registry,
            resources={"max_rss_kb": 100.0},
            elapsed_s=0.25,
            fast_path=True,
        )
        assert validate_record(record) == []
        assert record["metrics"]["metrics"]["c"]["series"][0]["value"] == 1

    def test_invalid_embedded_snapshot_is_flagged(self):
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=5,
            outcome="completed",
            metrics={"schema": 999, "metrics": {}},
        )
        assert any("metrics" in problem for problem in validate_record(record))

    def test_bad_resources_and_fields_flagged(self):
        base = dict(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=5,
            outcome="completed",
        )
        record = run_record(**base, resources={"x": 1.0})
        record["resources"]["x"] = "lots"
        assert any("resources" in p for p in validate_record(record))
        record = run_record(**base, elapsed_s=0.5)
        record["elapsed_s"] = "fast"
        assert any("elapsed_s" in p for p in validate_record(record))
        record = run_record(**base, fast_path=True)
        record["fast_path"] = "yes"
        assert any("fast_path" in p for p in validate_record(record))
