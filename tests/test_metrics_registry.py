"""Tests for repro.obs.metrics: instruments, snapshots, merge, export.

Covers the registry's declaration contract (idempotent, conflicting
re-declarations rejected), each instrument's semantics, the
snapshot/restore/merge cycle the parallel layer depends on, Prometheus
text rendering, the engine-facing :class:`MetricsProbe` (checked
against :func:`~repro.sim.metrics.compute_metrics` ground truth, and
byte-identical across the fast, general and columnar kernels), the
:class:`ResourceSampler`, and the telemetry embedding of snapshots.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.assignment import shared_core
from repro.baselines.runners import run_rendezvous_broadcast
from repro.core import CogCast
from repro.core.runners import run_data_aggregation, run_gossip, run_local_broadcast
from repro.obs import MultiProbe, SlotProbe, SpanProbe, TelemetrySink
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsError,
    MetricsProbe,
    MetricsRegistry,
    ResourceSampler,
    merge_snapshots,
    render_prometheus,
    validate_snapshot,
)
from repro.obs.telemetry import read_telemetry, run_record, validate_record
from repro.sim.backends import AllInformed, ExactBackend, numpy_available
from repro.sim.channels import Network
from repro.sim.engine import build_engine, takes_run_totals
from repro.sim.metrics import compute_metrics
from repro.sim.rng import derive_rng
from repro.sim.trace import EventTrace
from repro.types import SimulationError


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


class TestMetricsProbe:
    def test_probe_matches_trace_ground_truth(self):
        registry = MetricsRegistry()
        trace = EventTrace()
        network = small_network()
        result = run_local_broadcast(
            network, seed=3, max_slots=60, trace=trace, metrics=registry
        )
        truth = compute_metrics(trace)
        probe = MetricsProbe(registry, protocol="cogcast")
        assert probe.slots.value(protocol="cogcast") == result.slots
        assert probe.broadcasts.value(protocol="cogcast") == truth.transmissions
        assert probe.collisions.value(protocol="cogcast") == truth.collisions
        assert probe.deliveries.value(protocol="cogcast") == truth.deliveries
        assert probe.wasted_listens.value(protocol="cogcast") == truth.wasted_listens
        assert (
            probe.peak_contention.value(protocol="cogcast")
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

    def test_attaching_metrics_keeps_fast_path(self, tmp_path):
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
        run_local_broadcast(
            small_network(),
            seed=0,
            max_slots=60,
            metrics=general,
            backend=GeneralKernel(),
        )
        assert general.snapshot() == registry.snapshot() == records[0]["metrics"]


class GeneralKernel(ExactBackend):
    """The exact engine with its fast kernel switched off."""

    def build(self, network, protocols, **kwargs):
        return super().build(network, protocols, **{**kwargs, "fast_path": False})


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


def _cogcast_engine(probe, backend="exact"):
    return build_engine(
        small_network(),
        lambda view: CogCast(view, is_source=view.node_id == 0),
        seed=2,
        probe=probe,
        backend=backend,
    )


class TestRunTotals:
    """``MetricsProbe`` on the fast and columnar kernels (``on_run_totals``)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("runner", sorted(KERNEL_PARITY_RUNNERS))
    def test_snapshot_identical_across_kernels(self, runner, seed):
        rng = derive_rng(seed, "kernel-parity")
        network = Network.static(shared_core(12, 6, 2, rng).shuffled_labels(rng))
        kernels = {"fast": "exact", "general": GeneralKernel()}
        if numpy_available():
            kernels["vector-replay"] = "vector-replay"
        snapshots, fast_paths = {}, {}
        for kernel, backend in kernels.items():
            registry, handle = MetricsRegistry(), io.StringIO()
            KERNEL_PARITY_RUNNERS[runner](
                network,
                seed=seed,
                metrics=registry,
                telemetry=TelemetrySink(handle),
                backend=backend,
            )
            snapshots[kernel] = json.dumps(registry.snapshot(), sort_keys=True)
            fast_paths[kernel] = json.loads(handle.getvalue())["fast_path"]
        assert fast_paths["fast"] is True
        assert fast_paths["general"] is False
        assert len(set(snapshots.values())) == 1, snapshots

    @pytest.mark.parametrize("backend", ["exact", "vector-replay"])
    def test_fast_kernels_fire_only_run_hooks(self, backend):
        if backend != "exact" and not numpy_available():
            pytest.skip("numpy not installed")
        fired: list[str] = []

        class Recorder(MetricsProbe):
            def __getattribute__(self, name):
                if name.startswith("on_"):
                    fired.append(name)
                return object.__getattribute__(self, name)

        engine = _cogcast_engine(Recorder(MetricsRegistry()), backend)
        engine.run(200, stop_when=AllInformed(engine.protocols))
        assert engine.fast_path_engaged or engine.vector_engaged
        assert fired == ["on_run_start", "on_run_totals", "on_run_end"]

    @pytest.mark.parametrize(
        "make_probe",
        [
            pytest.param(lambda: SlotProbe(), id="no-hook"),
            pytest.param(
                lambda: MultiProbe([MetricsProbe(MetricsRegistry()), SpanProbe()]),
                id="metrics-plus-spans",
            ),
        ],
    )
    def test_probes_without_the_hook_take_the_general_kernel(self, make_probe):
        engine = _cogcast_engine(make_probe())
        engine.run(20)
        assert engine.fast_path_engaged is False

    def test_hook_is_looked_up_on_the_class(self):
        probe = SlotProbe()
        probe.on_run_totals = lambda **totals: None
        assert not takes_run_totals(probe)
        assert takes_run_totals(MetricsProbe(MetricsRegistry()))

    def test_attaching_probe_mid_totals_run_raises(self):
        engine = _cogcast_engine(MetricsProbe(MetricsRegistry()))

        def sabotage(running_engine):
            running_engine.probe = SlotProbe()
            return False

        with pytest.raises(SimulationError):
            engine.run(10, stop_when=sabotage)


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
