"""Tests for repro.obs — probes, aggregators, profiler, telemetry.

The load-bearing guarantee is probe/trace parity: a
:class:`~repro.obs.probes.CountersProbe` attached to a run must produce
*exactly* the :class:`~repro.sim.metrics.TraceMetrics` that analysing a
full :class:`~repro.sim.trace.EventTrace` of the same seeded run does,
including under jamming and under the destructive collision model.
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
    ActivityProbe,
    CountersProbe,
    FixedHistogram,
    HistogramProbe,
    MultiProbe,
    Profiler,
    ProtocolProbe,
    SlotProbe,
    StreamingStat,
    TelemetryError,
    TelemetrySink,
    attach,
    campaign_record,
    experiment_record,
    read_telemetry,
    run_record,
    summarize_records,
    validate_record,
)
from repro.sim.adversary import RandomJammer
from repro.sim.backends import numpy_available
from repro.sim.channels import Network
from repro.sim.collision import DestructiveCollision, ProbedCollision
from repro.sim.engine import build_engine
from repro.sim.metrics import compute_metrics
from repro.sim.rng import derive_rng
from repro.sim.trace import EventTrace
from tests import runner_golden


def small_network(n=16, c=8, k=2, seed=3) -> Network:
    rng = derive_rng(seed, "test-obs-network")
    return Network.static(shared_core(n, c, k, rng).shuffled_labels(rng))


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
    """CountersProbe must reproduce compute_metrics exactly."""

    def assert_parity(self, **run_kwargs):
        network = run_kwargs.pop("network", small_network())
        trace = EventTrace()
        counters = CountersProbe()
        result = run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            trace=trace,
            probe=counters,
            **run_kwargs,
        )
        assert compute_metrics(trace) == counters.metrics()
        return result, counters

    def test_clean_run(self):
        result, counters = self.assert_parity()
        assert result.completed
        assert counters.successes > 0

    def test_jammed_run(self):
        network = small_network()
        universe = sorted(network.assignment_at(0).universe)
        jammer = RandomJammer(universe, 3, derive_rng(9, "test-obs-jam"))
        _, counters = self.assert_parity(network=network, jammer=jammer)
        # A random jammer at this budget reliably burns some listens.
        assert counters.wasted_listens > 0

    def test_destructive_collisions(self):
        _, counters = self.assert_parity(collision=DestructiveCollision())
        # Destructive contention is exactly the undelivered-contended case.
        assert counters.undelivered_contended == counters.collisions

    def test_probe_without_trace_matches_trace_only_run(self):
        network = small_network()
        counters = CountersProbe()
        run_local_broadcast(network, seed=11, max_slots=5000, probe=counters)
        trace = EventTrace()
        run_local_broadcast(network, seed=11, max_slots=5000, trace=trace)
        assert counters.metrics() == compute_metrics(trace)

    def test_probe_does_not_perturb_run(self):
        network = small_network()
        bare = run_local_broadcast(network, seed=11, max_slots=5000)
        probed = run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            probe=MultiProbe([CountersProbe(), HistogramProbe(), ActivityProbe()]),
            profiler=Profiler(),
        )
        assert (bare.slots, bare.completed, bare.informed_slots) == (
            probed.slots,
            probed.completed,
            probed.informed_slots,
        )


class TestHistogramProbe:
    def test_latency_counts_first_deliveries(self):
        network = small_network()
        hist = HistogramProbe()
        result = run_local_broadcast(network, seed=4, max_slots=5000, probe=hist)
        assert result.completed
        # Every node except the source first hears at some slot.
        assert hist.nodes_heard == network.num_nodes - 1
        assert hist.latency.total == hist.nodes_heard

    def test_contention_distribution(self):
        hist = HistogramProbe(contention_buckets=4)
        run_local_broadcast(small_network(), seed=4, max_slots=5000, probe=hist)
        assert hist.contention.total > 0
        assert hist.contention_stat.count == hist.contention.total
        assert hist.contention_stat.minimum >= 1

    def test_as_dict_json_ready(self):
        hist = HistogramProbe()
        run_local_broadcast(small_network(), seed=4, max_slots=5000, probe=hist)
        snapshot = json.loads(json.dumps(hist.as_dict()))
        assert snapshot["nodes_heard"] == hist.nodes_heard


class TestActivityProbe:
    def test_per_node_accounting(self):
        network = small_network()
        act = ActivityProbe()
        result = run_local_broadcast(network, seed=4, max_slots=5000, probe=act)
        assert result.completed
        totals = act.as_dict()
        assert totals["nodes_seen"] == network.num_nodes
        # Every node acts every slot (COGCAST never idles).
        assert (
            totals["broadcast_slots"] + totals["listen_slots"] + totals["idle_slots"]
            == network.num_nodes * result.slots
        )
        assert act.active_slots(0) > 0
        assert len(act.busiest(3)) == 3


class TestMultiProbe:
    def test_fans_out_to_all_children(self):
        counters, hist = CountersProbe(), HistogramProbe()
        multi = MultiProbe([counters, hist])
        assert not multi.observes_nodes
        run_local_broadcast(small_network(), seed=11, max_slots=5000, probe=multi)
        assert counters.successes > 0
        assert hist.contention.total > 0

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

            def on_slot_end(self, slot, active):
                calls.append((self.tag, "slot_end"))

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
        multi.on_slot_end(0, 3)
        assert calls == [("a", "slot_end"), ("c", "slot_end")]

    def test_parity_through_multiprobe(self):
        network = small_network()
        trace = EventTrace()
        counters = CountersProbe()
        run_local_broadcast(
            network,
            seed=11,
            max_slots=5000,
            trace=trace,
            probe=MultiProbe([counters, ActivityProbe()]),
        )
        assert compute_metrics(trace) == counters.metrics()


class TestAttach:
    def test_translation_hook(self):
        class Translations(SlotProbe):
            def __init__(self):
                self.seen = 0

            def on_translation(self, slot, node, label, channel):
                self.seen += 1

        network = small_network()
        probe = Translations()
        engine = build_engine(network, _cogcast_factory(), seed=2)
        attach(engine, probe, channels=True)
        engine.run(20, stop_when=lambda _: False)
        assert probe.seen > 0
        # Detaching restores the zero-cost path.
        network.attach_probe(None)
        before = probe.seen
        engine.run(5, stop_when=lambda _: False)
        assert probe.seen == before

    def test_contention_hook(self):
        class Contentions(SlotProbe):
            def __init__(self):
                self.calls = 0
                self.max_contenders = 0

            def on_contention(self, contenders, resolution):
                self.calls += 1
                self.max_contenders = max(self.max_contenders, contenders)

        probe = Contentions()
        engine = build_engine(small_network(), _cogcast_factory(), seed=2)
        attach(engine, probe, collision=True)
        assert isinstance(engine.collision, ProbedCollision)
        engine.run(50, stop_when=lambda _: False)
        assert probe.calls > 0
        assert probe.max_contenders >= 1

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


class TestProfiler:
    def test_engine_sections_populated(self):
        profiler = Profiler()
        run_local_broadcast(
            small_network(), seed=4, max_slots=5000, profiler=profiler
        )
        sections = profiler.sections()
        assert set(sections) == {"engine.collect", "engine.resolve", "engine.deliver"}
        assert all(stat.calls > 0 for stat in sections.values())
        assert all(stat.seconds >= 0 for stat in sections.values())

    def test_section_context_manager(self):
        profiler = Profiler()
        with profiler.section("setup"):
            pass
        assert profiler.sections()["setup"].calls == 1

    def test_report_and_reset(self):
        profiler = Profiler()
        profiler.add("alpha", 0.25)
        profiler.add("alpha", 0.25)
        profiler.add("beta", 0.5)
        report = profiler.report()
        assert "alpha" in report and "beta" in report
        assert math.isclose(profiler.total_seconds, 1.0)
        profiler.reset()
        assert profiler.report() == "(no sections profiled)"

    def test_as_dict_shape(self):
        profiler = Profiler()
        profiler.add("phase", 0.125)
        assert profiler.as_dict() == {"phase": {"seconds": 0.125, "calls": 1}}


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

    def test_run_record_attaches_probe_and_profiler(self):
        counters, profiler = CountersProbe(), Profiler()
        run_local_broadcast(
            small_network(),
            seed=7,
            max_slots=5000,
            probe=counters,
            profiler=profiler,
        )
        record = run_record(
            protocol="cogcast",
            seed=7,
            network=small_network(),
            slots=10,
            outcome="completed",
            probe=counters,
            profiler=profiler,
        )
        assert validate_record(record) == []
        assert record["counters"]["successes"] == counters.successes
        assert "engine.resolve" in record["timings"]

    def test_records_embed_span_summaries_and_profiler_timings(self):
        from repro.obs import SpanProbe

        profiler, spans = Profiler(), SpanProbe()
        run_data_aggregation(
            small_network(),
            [1.0] * 16,
            seed=3,
            spans=spans,
            profiler=profiler,
        )
        record = run_record(
            protocol="cogcomp",
            seed=3,
            network=small_network(),
            slots=10,
            outcome="completed",
            profiler=profiler,
            spans=spans,
        )
        assert validate_record(record) == []
        assert record["spans"] == spans.summary()
        assert record["timings"] == profiler.as_dict()

        experiment = experiment_record(
            experiment_id="E01",
            seed=3,
            trials=1,
            fast=True,
            elapsed_s=0.1,
            rows=1,
            profiler=profiler,
            spans=spans,
        )
        assert validate_record(experiment) == []
        assert experiment["spans"]["informed"] == len(spans.informed)
        assert experiment["timings"] == profiler.as_dict()

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
        # A HistogramProbe's snapshot holds nested distributions, which the
        # schema's integer-valued ``counters`` cannot carry: the run must
        # still return and record, just without ``counters``.
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        hist = HistogramProbe()
        result = run_local_broadcast(
            small_network(), seed=1, max_slots=5000, probe=hist, telemetry=sink
        )
        assert result.completed
        assert hist.nodes_heard > 0
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert len(records) == 1
        assert validate_record(records[0]) == []
        assert "counters" not in records[0]

    def test_activity_probe_counters_are_embedded(self):
        handle = io.StringIO()
        activity = ActivityProbe()
        run_local_broadcast(
            small_network(),
            seed=1,
            max_slots=5000,
            probe=activity,
            telemetry=TelemetrySink(handle),
        )
        assert json.loads(handle.getvalue())["counters"] == activity.as_dict()

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
