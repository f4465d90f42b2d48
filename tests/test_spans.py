"""Tests for the causal span layer: trees, phase spans, trace export.

Acceptance criteria locked here:

- on a seeded COGCAST run the reconstructed :class:`SpanTree` is a
  valid tree rooted at the source whose node set equals the run's
  informed set, agreeing edge-for-edge with the protocol-side
  ``BroadcastResult.parents`` / ``informed_slots`` ground truth;
- on a seeded COGCOMP run the four phase spans exactly match the
  protocol's ``phase2_start`` / ``phase3_start`` / ``phase4_start``
  timetable;
- the exported Chrome-trace JSON validates against its schema;
- the fast path still engages when no probe is attached, and a
  late-attached probe is never silently ignored.
"""

from __future__ import annotations

import json

import pytest

from repro.core.messages import (
    AckPayload,
    ClusterSizePayload,
    CountPayload,
    InitPayload,
    MediatorAnnouncePayload,
    ValueReportPayload,
)
from repro.core.runners import run_data_aggregation, run_local_broadcast
from repro.obs.export import (
    chrome_trace,
    span_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.probe import SlotProbe
from repro.obs.spans import InformEdge, Span, SpanProbe, SpanTree, payload_kind
from repro.sim.actions import Envelope
from repro.sim.engine import build_engine
from repro.sim.protocol import IdleProtocol
from repro.sim.trace import ChannelEvent
from repro.types import SimulationError


class TestPayloadKind:
    def test_every_protocol_payload_classified(self):
        cases = [
            (InitPayload(origin=0), "init"),
            (CountPayload(node=3, informed_slot=5), "census"),
            (ClusterSizePayload(informed_slot=5, size=2), "cluster-size"),
            (MediatorAnnouncePayload(cluster_slot=5), "announce"),
            (ValueReportPayload(cluster_slot=5, value=1.0), "report"),
            (AckPayload(node=3), "ack"),
        ]
        for payload, expected in cases:
            assert payload_kind(payload) == expected, payload

    def test_unknown_payloads_are_none(self):
        assert payload_kind(None) is None
        assert payload_kind("just a string") is None
        assert payload_kind(object()) is None


def _edge(parent, child, slot, channel=0):
    return InformEdge(parent=parent, child=child, slot=slot, channel=channel)


class TestSpanTree:
    def _tree(self):
        #      0
        #     / \
        #    1   2      (slots 1, 2)
        #   / \
        #  3   4        (slots 3, 5)
        return SpanTree(
            0,
            {
                1: _edge(0, 1, 1),
                2: _edge(0, 2, 2, channel=1),
                3: _edge(1, 3, 3),
                4: _edge(1, 4, 5),
            },
        )

    def test_queries(self):
        tree = self._tree()
        assert tree.nodes == frozenset({0, 1, 2, 3, 4})
        assert len(tree) == 5
        assert tree.parent_of(0) is None
        assert tree.parent_of(3) == 1
        assert tree.children(0) == (1, 2)
        assert tree.fanout(1) == 2
        assert tree.fanout(4) == 0
        assert tree.depth(0) == 0
        assert tree.depth(4) == 2
        assert [e.child for e in tree.path_to(3)] == [1, 3]

    def test_critical_path_is_last_informed(self):
        tree = self._tree()
        critical = tree.critical_path()
        assert [e.child for e in critical] == [1, 4]
        assert critical[-1].slot == 5

    def test_iteration_is_in_informing_order(self):
        assert [e.child for e in self._tree()] == [1, 2, 3, 4]

    def test_stats(self):
        stats = self._tree().stats()
        assert stats["nodes"] == 5
        assert stats["edges"] == 4
        assert stats["max_depth"] == 2
        assert stats["last_informed_slot"] == 5
        assert stats["max_fanout"] == 2
        assert SpanTree(7, {}).stats()["nodes"] == 1

    def test_validate_clean(self):
        assert self._tree().validate() == []

    def test_validate_rejects_nonincreasing_slots(self):
        tree = SpanTree(0, {1: _edge(0, 1, 4), 2: _edge(1, 2, 4)})
        problems = tree.validate()
        assert any("does not follow" in p for p in problems)

    def test_validate_rejects_orphans_and_cycles(self):
        orphan = SpanTree(0, {2: _edge(9, 2, 1)})
        assert any("not in the tree" in p for p in orphan.validate())
        cycle = SpanTree(0, {1: _edge(2, 1, 1), 2: _edge(1, 2, 2)})
        assert any("unreachable" in p for p in cycle.validate())

    def test_validate_rejects_informed_source(self):
        tree = SpanTree(0, {0: _edge(1, 0, 1)})
        assert any("source" in p for p in tree.validate())


class TestSpanProbeCogcast:
    def test_tree_matches_protocol_ground_truth(self, medium_network):
        probe = SpanProbe()
        result = run_local_broadcast(
            medium_network, seed=7, max_slots=2000, spans=probe,
            require_completion=True,
        )
        tree = probe.tree
        assert tree.source == 0
        assert tree.validate() == []
        # Node set == the run's informed set (here: everyone).
        assert tree.nodes == frozenset(range(medium_network.num_nodes))
        # Edge-for-edge agreement with protocol-side bookkeeping.
        for node in range(medium_network.num_nodes):
            if node == tree.source:
                continue
            edge = tree.edges[node]
            assert edge.parent == result.parents[node]
            assert edge.slot == result.informed_slots[node]
        # Slots strictly increase along every root path.
        for node in sorted(tree.nodes):
            slots = [e.slot for e in tree.path_to(node)]
            assert slots == sorted(set(slots))

    def test_probe_resets_between_runs(self, small_network):
        probe = SpanProbe()
        run_local_broadcast(small_network, seed=1, max_slots=500, spans=probe)
        first = dict(probe.tree.edges)
        run_local_broadcast(small_network, seed=1, max_slots=500, spans=probe)
        assert probe.tree.edges == first  # identical run, not accumulated

    def test_tree_without_init_traffic_raises(self):
        probe = SpanProbe()
        with pytest.raises(ValueError):
            probe.tree

    def test_untimed_spans_have_single_root(self, small_network):
        probe = SpanProbe()
        run_local_broadcast(small_network, seed=3, max_slots=500, spans=probe)
        spans = probe.spans()
        assert [s.name for s in spans] == ["run"]
        assert spans[0].end > 0
        assert probe.node_extents()  # every node acted at least once


class TestSpanProbeCogcomp:
    @pytest.fixture
    def aggregated(self, small_network):
        probe = SpanProbe()
        result = run_data_aggregation(
            small_network,
            [float(i + 1) for i in range(small_network.num_nodes)],
            seed=5,
            spans=probe,
            require_completion=True,
        )
        return probe, result

    def test_phase_spans_match_protocol_timetable(self, aggregated, small_network):
        probe, result = aggregated
        l, n = result.phase1_slots, small_network.num_nodes
        spans = {span.name: span for span in probe.spans()}
        # The protocol's exact boundaries: phase2_start = l,
        # phase3_start = l + n, phase4_start = 2l + n.
        assert (spans["phase1"].start, spans["phase1"].end) == (0, l)
        assert (spans["phase2"].start, spans["phase2"].end) == (l, l + n)
        assert (spans["phase3"].start, spans["phase3"].end) == (l + n, 2 * l + n)
        assert spans["phase4"].start == 2 * l + n
        assert spans["phase4"].end == result.total_slots
        for name in ("phase1", "phase2", "phase3", "phase4"):
            assert spans[name].parent == "run"

    def test_cluster_spans_live_inside_phase4(self, aggregated):
        probe, result = aggregated
        clusters = [span for span in probe.spans() if span.kind == "cluster"]
        assert clusters, "a completed aggregation has cluster conversations"
        phase4_start = 2 * result.phase1_slots + len(result.parents)
        for span in clusters:
            assert span.parent == "phase4"
            assert span.start >= phase4_start
            assert span.attrs["reports"] >= 0

    def test_summary_is_json_ready(self, aggregated):
        probe, _ = aggregated
        summary = probe.summary()
        assert summary == json.loads(json.dumps(summary))
        assert summary["informed"] == len(probe.informed)
        assert summary["tree"]["nodes"] == summary["informed"]
        assert set(summary["phases"]) == {"phase1", "phase2", "phase3", "phase4"}

    def test_span_duration_and_dict(self):
        span = Span(name="x", kind="phase", start=3, end=9, parent="run")
        assert span.duration == 6
        assert span.as_dict()["parent"] == "run"


class TestChromeTraceExport:
    def test_export_validates_and_round_trips(self, small_network, tmp_path):
        probe = SpanProbe()
        run_data_aggregation(
            small_network,
            [1.0] * small_network.num_nodes,
            seed=5,
            spans=probe,
        )
        doc = chrome_trace(probe, trace_name="test")
        assert validate_chrome_trace(doc) == []
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {"run", "phase1", "phase2", "phase3", "phase4"} <= set(names)
        informs = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(informs) == len(probe.tree.edges)

        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, probe)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert len(loaded["traceEvents"]) == count
        assert span_summary(probe) == probe.summary()

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        bad_ts = {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": -1, "dur": 0}
        problems = validate_chrome_trace({"traceEvents": [bad_ts]})
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)


class TestFastPathInteraction:
    def _engine(self, network, probe=None):
        return build_engine(
            network, lambda view: IdleProtocol(view), seed=0, probe=probe
        )

    def test_fast_path_engages_without_probe(self, small_network):
        engine = self._engine(small_network)
        engine.run(5)
        assert engine.fast_path_engaged is True

    def test_span_probe_disengages_fast_path(self, small_network):
        engine = self._engine(small_network, probe=SpanProbe())
        engine.run(5)
        assert engine.fast_path_engaged is False

    def test_late_attached_probe_is_honoured_next_run(self, small_network):
        class SlotCounter(SlotProbe):
            seen = 0

            def on_slot_begin(self, slot):
                self.seen += 1

        engine = self._engine(small_network)
        engine.run(3)
        assert engine.fast_path_engaged is True
        probe = SlotCounter()
        engine.probe = probe  # attach between runs: allowed ...
        engine.run(3, stop_when=lambda _: False)
        assert engine.fast_path_engaged is False  # ... and not ignored
        assert probe.seen == 3

    def test_attaching_probe_mid_fast_run_raises(self, small_network):
        engine = self._engine(small_network)

        def sabotage(running_engine):
            running_engine.probe = SlotProbe()
            return False

        with pytest.raises(SimulationError):
            engine.run(10, stop_when=sabotage)
        # The engine recovers: the flag is cleared and runs still work.
        engine.run(3)
        assert engine.fast_path_engaged is True

    def test_detaching_probe_mid_fast_run_is_harmless(self, small_network):
        engine = self._engine(small_network)

        def detach(running_engine):
            running_engine.probe = None
            return False

        engine.run(3, stop_when=detach)
        assert engine.fast_path_engaged is True


class TestSpanProbeUnit:
    def test_inform_edges_skip_jammed_listeners(self):
        probe = SpanProbe()
        probe.on_run_start(num_nodes=4, num_channels=2, overlap=1)
        event = ChannelEvent(
            slot=0,
            channel=0,
            broadcasters=(0,),
            listeners=(1, 2),
            winner=Envelope(sender=0, payload=InitPayload(origin=0)),
            jammed_nodes=frozenset({2}),
        )
        probe.on_channel_event(event)
        probe.on_run_end(1)
        assert set(probe.tree.edges) == {1}
        assert probe.tree.edges[1] == _edge(0, 1, 0)

    def test_first_inform_wins(self):
        probe = SpanProbe()
        probe.on_run_start(num_nodes=3, num_channels=2, overlap=1)
        first = ChannelEvent(
            slot=0, channel=0, broadcasters=(0,), listeners=(1,),
            winner=Envelope(sender=0, payload=InitPayload(origin=0)),
        )
        again = ChannelEvent(
            slot=1, channel=1, broadcasters=(0,), listeners=(1, 2),
            winner=Envelope(sender=0, payload=InitPayload(origin=0)),
        )
        probe.on_channel_event(first)
        probe.on_channel_event(again)
        assert probe.tree.edges[1].slot == 0  # not overwritten at slot 1
        assert probe.tree.edges[2].slot == 1
