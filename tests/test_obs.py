"""Tests for repro.obs — probes, aggregators, telemetry.

The load-bearing guarantee is probe/trace parity: the counters a
:class:`~repro.obs.metrics.MetricsProbe` streams into its registry
must equal *exactly* the :class:`~repro.sim.metrics.TraceMetrics` that
analysing a full :class:`~repro.sim.trace.EventTrace` of the same
seeded run does, including under jamming and under the destructive
collision model.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.assignment import shared_core
from repro.baselines.runners import (
    run_hopping_together,
    run_rendezvous_aggregation,
    run_rendezvous_broadcast,
    run_stay_and_scan_broadcast,
)
from repro.core.runners import run_data_aggregation, run_gossip, run_local_broadcast
from repro.obs import (
    FixedHistogram,
    MetricsProbe,
    MetricsRegistry,
    MultiProbe,
    ProtocolProbe,
    SlotProbe,
    SpanProbe,
    StreamingStat,
    TelemetryError,
    TelemetrySink,
    campaign_record,
    experiment_record,
    read_telemetry,
    run_record,
    summarize_records,
    validate_record,
)
from repro.sim.actions import Envelope
from repro.sim.adversary import RandomJammer
from repro.sim.backends import numpy_available
from repro.sim.channels import Network
from repro.sim.collision import DestructiveCollision
from repro.sim.engine import build_engine
from repro.sim.metrics import TraceMetrics, compute_metrics
from repro.sim.rng import derive_rng
from repro.sim.trace import ChannelEvent, EventTrace
from tests import runner_golden


def small_network(n=16, c=8, k=2, seed=3) -> Network:
    rng = derive_rng(seed, "test-obs-network")
    return Network.static(shared_core(n, c, k, rng).shuffled_labels(rng))


def streamed_counts(registry: MetricsRegistry, protocol: str) -> dict[str, float]:
    """A MetricsProbe's counts, keyed by the matching TraceMetrics field."""
    probe = MetricsProbe(registry, protocol=protocol)
    return {
        "transmissions": probe.broadcasts.value(protocol=protocol),
        "collisions": probe.collisions.value(protocol=protocol),
        "deliveries": probe.deliveries.value(protocol=protocol),
        "wasted_listens": probe.wasted_listens.value(protocol=protocol),
        "peak_channel_contention": probe.peak_contention.value(protocol=protocol),
    }


def trace_counts(metrics: TraceMetrics) -> dict[str, int]:
    """The TraceMetrics fields a MetricsProbe streams."""
    return {
        name: getattr(metrics, name)
        for name in (
            "transmissions",
            "collisions",
            "deliveries",
            "wasted_listens",
            "peak_channel_contention",
        )
    }


def streamed_slots(registry: MetricsRegistry, protocol: str) -> float:
    """The ``sim_slots`` count a MetricsProbe streamed for *protocol*."""
    return MetricsProbe(registry, protocol=protocol).slots.value(protocol=protocol)


class ChannelEventCounter(SlotProbe):
    """Counts channel events: a minimal slot-level probe."""

    def __init__(self):
        self.events = 0

    def on_channel_event(self, event):
        self.events += 1


class TestStreamingStat:
    def test_matches_batch_moments(self):
        samples = [3.0, 1.5, 4.0, 1.0, 5.5, 9.0, 2.5]
        stat = StreamingStat()
        for value in samples:
            stat.push(value)
        assert stat.count == len(samples)
        assert stat.minimum == min(samples)
        assert stat.maximum == max(samples)
        assert math.isclose(stat.mean, sum(samples) / len(samples))
        batch_mean = sum(samples) / len(samples)
        batch_var = sum((s - batch_mean) ** 2 for s in samples) / len(samples)
        assert math.isclose(stat.variance, batch_var)

    def test_empty_stat(self):
        stat = StreamingStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0
        assert stat.minimum is None and stat.maximum is None

    def test_merge_equals_single_stream(self):
        left_samples, right_samples = [1.0, 2.0, 7.0], [4.0, 4.0, 0.5, 9.0]
        left, right, combined = StreamingStat(), StreamingStat(), StreamingStat()
        for value in left_samples:
            left.push(value)
            combined.push(value)
        for value in right_samples:
            right.push(value)
            combined.push(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum
        assert math.isclose(left.mean, combined.mean)
        assert math.isclose(left.variance, combined.variance)

    def test_merge_into_empty(self):
        target, source = StreamingStat(), StreamingStat()
        source.push(2.0)
        source.push(4.0)
        target.merge(source)
        assert target.count == 2 and target.mean == 3.0

    def test_as_dict_round_trips_json(self):
        stat = StreamingStat()
        stat.push(1)
        assert json.loads(json.dumps(stat.as_dict()))["count"] == 1

    def test_single_sample_variance_is_zero(self):
        stat = StreamingStat()
        stat.push(42.0)
        assert stat.count == 1
        assert stat.mean == 42.0
        assert stat.variance == 0.0  # population variance of one sample
        assert stat.minimum == stat.maximum == 42.0


class TestFixedHistogram:
    def test_bucketing_and_overflow(self):
        hist = FixedHistogram(width=2.0, buckets=3)
        for value in (0, 1.9, 2.0, 5.9, 6.0, 100):
            hist.push(value)
        assert hist.counts == [2, 1, 1, 2]
        assert hist.total == 6
        assert hist.overflow == 2

    def test_constant_memory(self):
        hist = FixedHistogram(width=1.0, buckets=4)
        for value in range(10_000):
            hist.push(value % 50)
        assert len(hist.counts) == 5
        assert hist.total == 10_000

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram().push(-0.1)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            FixedHistogram(width=0)
        with pytest.raises(ValueError):
            FixedHistogram(buckets=0)

    def test_quantile(self):
        hist = FixedHistogram(width=1.0, buckets=10)
        for value in range(10):
            hist.push(value)
        assert hist.quantile(0.1) == 1.0
        assert hist.quantile(1.0) == 10.0
        assert FixedHistogram().quantile(0.5) == 0.0

    def test_render_nonempty(self):
        hist = FixedHistogram(width=1.0, buckets=2)
        hist.push(0)
        assert "#" in hist.render()
        assert FixedHistogram().render() == "(empty histogram)"


class TestProbeTraceParity:
    """MetricsProbe must reproduce compute_metrics exactly."""

    def assert_parity(self, **run_kwargs):
        network = run_kwargs.pop("network", small_network())
        trace = EventTrace()
        registry = MetricsRegistry()
        result = run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            trace=trace,
            metrics=registry,
            **run_kwargs,
        )
        truth = compute_metrics(trace)
        assert streamed_counts(registry, "cogcast") == trace_counts(truth)
        # sim_slots counts every executed slot, including slots with no
        # channel event, which slots_observed skips.
        assert streamed_slots(registry, "cogcast") == result.slots
        return result, truth, trace

    def test_clean_run(self):
        result, truth, _ = self.assert_parity()
        assert result.completed
        assert truth.successes > 0

    def test_jammed_run(self):
        network = small_network()
        universe = sorted(network.assignment_at(0).universe)
        jammer = RandomJammer(universe, 3, derive_rng(9, "test-obs-jam"))
        _, truth, trace = self.assert_parity(network=network, jammer=jammer)
        # A random jammer at this budget reliably jams some listeners.
        assert truth.wasted_listens > 0
        assert any(
            node in event.jammed_nodes for event in trace for node in event.listeners
        )

    def test_jammed_listeners_count_as_wasted(self):
        # Jammed listeners hear nothing, whether or not the channel had
        # a winner: one event of each kind, folded both ways.
        winner = Envelope(sender=0, payload="m")
        events = [
            ChannelEvent(0, 5, (0,), (1, 2), winner, frozenset({2})),
            ChannelEvent(0, 6, (), (3, 4), None, frozenset({4})),
            ChannelEvent(1, 5, (0, 3), (1,), None, frozenset({0, 3})),
        ]
        trace = EventTrace()
        registry = MetricsRegistry()
        probe = MetricsProbe(registry, protocol="p")
        for event in events:
            trace.record(event)
            probe.on_channel_event(event)
        truth = compute_metrics(trace)
        assert (truth.deliveries, truth.wasted_listens) == (1, 4)
        assert streamed_counts(registry, "p") == trace_counts(truth)

    def test_destructive_collisions(self):
        _, truth, _ = self.assert_parity(collision=DestructiveCollision())
        # Destructive contention is exactly the undelivered-contended case.
        assert truth.undelivered_contended == truth.collisions > 0

    def test_cogcomp_run(self):
        network = small_network()
        trace = EventTrace()
        registry = MetricsRegistry()
        result = run_data_aggregation(
            network,
            list(range(network.num_nodes)),
            seed=11,
            trace=trace,
            metrics=registry,
        )
        assert result.completed
        truth = compute_metrics(trace)
        assert streamed_counts(registry, "cogcomp") == trace_counts(truth)
        assert streamed_slots(registry, "cogcomp") == result.total_slots

    def test_probe_without_trace_matches_trace_only_run(self):
        network = small_network()
        registry = MetricsRegistry()
        run_local_broadcast(network, seed=11, max_slots=5000, metrics=registry)
        trace = EventTrace()
        run_local_broadcast(network, seed=11, max_slots=5000, trace=trace)
        assert streamed_counts(registry, "cogcast") == trace_counts(
            compute_metrics(trace)
        )

    def test_probe_does_not_perturb_run(self):
        network = small_network()
        bare = run_local_broadcast(network, seed=11, max_slots=5000)
        probed = run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            probe=MultiProbe([ChannelEventCounter(), SpanProbe()]),
            metrics=MetricsRegistry(),
        )
        assert (bare.slots, bare.completed, bare.informed_slots) == (
            probed.slots,
            probed.completed,
            probed.informed_slots,
        )


class TestMultiProbe:
    def test_fans_out_to_all_children(self):
        registry = MetricsRegistry()
        metrics = MetricsProbe(registry, protocol="cogcast")
        events = ChannelEventCounter()
        multi = MultiProbe([metrics, events])
        assert not multi.observes_nodes
        run_local_broadcast(small_network(), seed=11, max_slots=5000, probe=multi)
        assert metrics.deliveries.value(protocol="cogcast") > 0
        assert events.events > 0

    def test_node_hooks_only_reach_node_observers(self):
        class CountingSlotProbe(SlotProbe):
            """Asserts node hooks never reach a slot-level probe."""

        class CountingNodeProbe(ProtocolProbe):
            def __init__(self):
                self.actions = 0

            def on_action(self, slot, node, action):
                self.actions += 1

        node_probe = CountingNodeProbe()
        multi = MultiProbe([CountingSlotProbe(), node_probe])
        assert multi.observes_nodes
        run_local_broadcast(small_network(), seed=11, max_slots=5000, probe=multi)
        assert node_probe.actions > 0

    def test_children_fire_in_registration_order(self):
        calls: list[tuple[str, str]] = []

        class OrderedSlot(SlotProbe):
            def __init__(self, tag):
                self.tag = tag

            def on_slot_begin(self, slot):
                calls.append((self.tag, "slot_begin"))

            def on_run_end(self, slots):
                calls.append((self.tag, "run_end"))

        class OrderedNode(ProtocolProbe):
            def __init__(self, tag):
                self.tag = tag

            def on_slot_begin(self, slot):
                calls.append((self.tag, "slot_begin"))

            def on_action(self, slot, node, action):
                calls.append((self.tag, "action"))

        multi = MultiProbe([OrderedSlot("a"), OrderedNode("b"), OrderedSlot("c")])
        multi.on_slot_begin(0)
        assert calls == [("a", "slot_begin"), ("b", "slot_begin"), ("c", "slot_begin")]
        calls.clear()
        multi.on_action(0, 1, None)
        assert calls == [("b", "action")]  # slot-level children skipped
        calls.clear()
        multi.on_run_end(3)
        assert calls == [("a", "run_end"), ("c", "run_end")]

    def test_parity_through_multiprobe(self):
        network = small_network()
        trace = EventTrace()
        registry = MetricsRegistry()
        run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            trace=trace,
            probe=MultiProbe([MetricsProbe(registry, protocol="cogcast"), SpanProbe()]),
        )
        assert streamed_counts(registry, "cogcast") == trace_counts(
            compute_metrics(trace)
        )


class TestAttach:
    def test_engine_fires_only_probe_api_hooks(self):
        fired: set[str] = set()

        class Recorder(ProtocolProbe):
            def __getattribute__(self, name):
                if name.startswith("on_"):
                    fired.add(name)
                return object.__getattribute__(self, name)

        network = small_network()
        universe = sorted(network.assignment_at(0).universe)
        engine = build_engine(
            network,
            _cogcast_factory(),
            seed=2,
            probe=Recorder(),
            jammer=RandomJammer(universe, 3, derive_rng(9, "test-obs-jam")),
            collision=DestructiveCollision(),
        )
        engine.run(20, stop_when=lambda _: False)
        assert fired == {
            "on_run_start",
            "on_slot_begin",
            "on_channel_event",
            "on_action",
            "on_run_end",
        }

    def test_run_lifecycle_hooks(self):
        class Lifecycle(SlotProbe):
            def __init__(self):
                self.events = []

            def on_run_start(self, *, num_nodes, num_channels, overlap):
                self.events.append(("start", num_nodes, num_channels, overlap))

            def on_run_end(self, slots):
                self.events.append(("end", slots))

        network = small_network()
        probe = Lifecycle()
        engine = build_engine(network, _cogcast_factory(), seed=2, probe=probe)
        result = engine.run(10, stop_when=lambda _: False)
        assert probe.events[0] == (
            "start",
            network.num_nodes,
            network.channels_per_node,
            network.overlap,
        )
        assert probe.events[-1] == ("end", result.slots)


class TestTelemetryRecords:
    def test_run_record_valid(self):
        network = small_network()
        record = run_record(
            protocol="cogcast",
            seed=7,
            network=network,
            slots=42,
            outcome="completed",
        )
        assert validate_record(record) == []
        assert record["n"] == network.num_nodes
        assert record["universe"] == len(network.assignment_at(0).universe)

    def test_run_record_attaches_metrics(self):
        registry = MetricsRegistry()
        run_local_broadcast(
            small_network(), seed=7, max_slots=5000, metrics=registry
        )
        record = run_record(
            protocol="cogcast",
            seed=7,
            network=small_network(),
            slots=10,
            outcome="completed",
            metrics=registry,
        )
        assert validate_record(record) == []
        assert record["metrics"] == registry.snapshot()
        assert "counters" not in record
        assert "timings" not in record

    def test_records_embed_span_summaries(self):
        from repro.obs import SpanProbe

        spans = SpanProbe()
        run_data_aggregation(small_network(), [1.0] * 16, seed=3, spans=spans)
        record = run_record(
            protocol="cogcomp",
            seed=3,
            network=small_network(),
            slots=10,
            outcome="completed",
            spans=spans,
        )
        assert validate_record(record) == []
        assert record["spans"] == spans.summary()
        assert "timings" not in record

        experiment = experiment_record(
            experiment_id="E01",
            seed=3,
            trials=1,
            fast=True,
            elapsed_s=0.1,
            rows=1,
            spans=spans,
        )
        assert validate_record(experiment) == []
        assert experiment["spans"]["informed"] == len(spans.informed)
        assert "timings" not in experiment

    def test_run_record_extra_cannot_shadow(self):
        with pytest.raises(TelemetryError):
            run_record(
                protocol="cogcast",
                seed=0,
                network=small_network(),
                slots=1,
                outcome="completed",
                extra={"slots": 2},
            )

    def test_experiment_and_campaign_records_valid(self):
        assert (
            validate_record(
                experiment_record(
                    experiment_id="E01",
                    seed=0,
                    trials=None,
                    fast=True,
                    elapsed_s=0.5,
                    rows=4,
                )
            )
            == []
        )
        assert (
            validate_record(
                campaign_record(
                    name="sweep",
                    seed=0,
                    point={"n": 32},
                    trials=5,
                    mean=17.2,
                    elapsed_s=0.1,
                )
            )
            == []
        )

    def test_validation_catches_problems(self):
        assert validate_record([]) != []
        assert validate_record({"schema": 1, "kind": "bogus"}) != []
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=1,
            outcome="completed",
        )
        for corruption in (
            {"schema": 99},
            {"seed": "zero"},
            {"seed": True},
            {"outcome": "exploded"},
            {"slots": "many"},
            {"counters": {"x": "one"}},
            {"timings": {"x": {"seconds": "slow", "calls": 1}}},
        ):
            assert validate_record({**record, **corruption}) != [], corruption
        missing = dict(record)
        del missing["protocol"]
        assert any("protocol" in p for p in validate_record(missing))

    def test_counters_from_older_records_still_validate(self):
        # Records no longer carry ``counters``; files written before
        # that change do, and must stay readable.
        record = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=1,
            outcome="completed",
        )
        assert validate_record({**record, "counters": {"successes": 3}}) == []

    def test_timings_from_older_records_still_read(self):
        # Nor do they carry ``timings``; older files' sections still
        # validate and still diff as timing-class series.
        from repro.obs.regress import collect_series

        record = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=1,
            outcome="completed",
        )
        older = {**record, "timings": {"engine.resolve": {"seconds": 0.5, "calls": 3}}}
        assert validate_record(older) == []
        series = collect_series([older])
        assert series[("run/cogcast", "timings.engine.resolve.seconds")] == (
            "timing",
            [0.5],
        )


class TestTelemetrySink:
    def test_emit_and_read_back(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        network = small_network()
        with TelemetrySink(path) as sink:
            for seed in range(3):
                sink.emit(
                    run_record(
                        protocol="cogcast",
                        seed=seed,
                        network=network,
                        slots=10 + seed,
                        outcome="completed",
                    )
                )
            assert sink.count == 3
        records = read_telemetry(path)
        assert [r["seed"] for r in records] == [0, 1, 2]

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        network = small_network()
        for _ in range(2):
            with TelemetrySink(path) as sink:
                sink.emit(
                    run_record(
                        protocol="cogcast",
                        seed=0,
                        network=network,
                        slots=1,
                        outcome="completed",
                    )
                )
        assert len(read_telemetry(path)) == 2

    def test_rejects_invalid_record(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetrySink(path) as sink:
            with pytest.raises(TelemetryError):
                sink.emit({"kind": "run"})
        assert not path.exists() or path.read_text() == ""

    def test_read_strict_and_lenient(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        good = run_record(
            protocol="cogcast",
            seed=0,
            network=small_network(),
            slots=1,
            outcome="completed",
        )
        path.write_text(json.dumps(good) + "\nnot json\n")
        with pytest.raises(TelemetryError):
            read_telemetry(path)
        assert len(read_telemetry(path, strict=False)) == 1

    def test_summarize(self):
        network = small_network()
        records = [
            run_record(
                protocol="cogcast",
                seed=seed,
                network=network,
                slots=10 * (seed + 1),
                outcome="completed" if seed else "budget",
            )
            for seed in range(2)
        ]
        text = summarize_records(records)
        assert "cogcast: 2 runs" in text
        assert "1 budget" in text and "1 completed" in text
        assert summarize_records([]) == "no telemetry records"


class TestRunnerTelemetry:
    def test_core_runners_emit_manifests(self):
        network = small_network()
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        run_local_broadcast(network, seed=1, max_slots=5000, telemetry=sink)
        run_gossip(network, {0: "a", 1: "b"}, seed=1, max_slots=5000, telemetry=sink)
        run_data_aggregation(
            network, list(range(network.num_nodes)), seed=1, telemetry=sink
        )
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert [r["protocol"] for r in records] == ["cogcast", "gossip", "cogcomp"]
        assert all(validate_record(r) == [] for r in records)

    def test_baseline_runners_emit_manifests(self):
        network = small_network()
        assignment = network.assignment_at(0)
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        run_rendezvous_broadcast(network, seed=1, max_slots=50_000, telemetry=sink)
        run_stay_and_scan_broadcast(network, seed=1, telemetry=sink)
        run_rendezvous_aggregation(
            network,
            list(range(network.num_nodes)),
            seed=1,
            max_slots=50_000,
            telemetry=sink,
        )
        run_hopping_together(assignment, seed=1, max_slots=50_000, telemetry=sink)
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert [r["protocol"] for r in records] == [
            "rendezvous-broadcast",
            "stay-and-scan",
            "rendezvous-aggregation",
            "hopping-together",
        ]
        assert all(validate_record(r) == [] for r in records)

    def test_budget_outcome_recorded(self):
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        run_local_broadcast(small_network(), seed=1, max_slots=1, telemetry=sink)
        record = json.loads(handle.getvalue())
        assert record["outcome"] == "budget"

    def test_manifest_emitted_before_require_completion_raises(self):
        from repro.types import SimulationError

        handle = io.StringIO()
        sink = TelemetrySink(handle)
        with pytest.raises(SimulationError):
            run_local_broadcast(
                small_network(),
                seed=1,
                max_slots=1,
                telemetry=sink,
                require_completion=True,
            )
        assert json.loads(handle.getvalue())["outcome"] == "budget"

    def test_non_integer_probe_snapshot_is_not_embedded(self):
        # A probe's own snapshot is never copied into the run record
        # (counts ride in the ``metrics`` snapshot): the run must still
        # return and record, just without ``counters``.
        class Snapshotting(SlotProbe):
            def __init__(self):
                self.contention: dict[int, int] = {}

            def on_channel_event(self, event):
                contenders = len(event.broadcasters)
                self.contention[contenders] = self.contention.get(contenders, 0) + 1

            def as_dict(self):
                return {"contention": dict(self.contention)}

        handle = io.StringIO()
        probe = Snapshotting()
        result = run_local_broadcast(
            small_network(), seed=1, max_slots=5000, probe=probe,
            telemetry=TelemetrySink(handle),
        )
        assert result.completed
        assert probe.contention
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert len(records) == 1
        assert validate_record(records[0]) == []
        assert "counters" not in records[0]

    @pytest.mark.parametrize("case_id", runner_golden.case_ids())
    def test_records_match_golden_fixture(self, case_id):
        # Records with timing fields stripped are pinned byte for byte;
        # tests/runner_golden.py documents the cases and regeneration.
        if "/vector-replay/" in case_id and not numpy_available():
            pytest.skip("numpy not installed")
        expected = runner_golden.load_fixture()[case_id]
        assert runner_golden.capture_case(case_id) == expected


class TestHarnessTelemetry:
    def test_run_with_telemetry_emits_experiment_record(self):
        from repro.experiments.harness import (
            ExperimentSpec,
            Table,
            run_with_telemetry,
        )

        def fake_run(trials=5, seed=0, fast=False):
            return Table(
                experiment_id="EXX",
                title="fake",
                claim="none",
                columns=("n",),
                rows=((1,), (2,)),
            )

        spec = ExperimentSpec(
            experiment_id="EXX", title="fake", claim="none", run=fake_run
        )
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        table = run_with_telemetry(spec, sink, seed=3, fast=True)
        assert len(table.rows) == 2
        record = json.loads(handle.getvalue())
        assert validate_record(record) == []
        assert record["experiment"] == "EXX"
        assert record["trials"] is None
        assert record["rows"] == 2

    def test_campaign_run_emits_point_records(self):
        from repro.experiments.campaign import Campaign

        campaign = Campaign(
            name="obs-sweep", measure=lambda point, seed: float(point["n"] + seed % 3)
        )
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        grid = [{"n": 4}, {"n": 8}]
        results = campaign.run(grid, trials=3, seed=0, telemetry=sink)
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert len(records) == len(grid)
        assert all(validate_record(r) == [] for r in records)
        for record, result in zip(records, results):
            assert record["point"] == dict(result.point)
            assert math.isclose(record["mean"], result.summary.mean)


def _cogcast_factory(source=0, body=None):
    from repro.core.cogcast import CogCast

    def factory(view):
        return CogCast(view, is_source=(view.node_id == source), body=body)

    return factory
