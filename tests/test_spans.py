"""Tests for the causal span layer: trees, phase spans, trace export.

Acceptance criteria locked here:

- on a seeded COGCAST run the probe's
  :class:`~repro.core.tree.DistributionTree` is a valid tree rooted at
  the source whose node set equals the run's informed set, agreeing
  edge-for-edge with the protocol-side ``BroadcastResult.parents`` /
  ``informed_slots`` ground truth, and a run cut short by its budget
  leaves a tree over the nodes it reached;
- the summary's ``tree.max_depth`` is the tree's height, and a stream
  in which an uninformed node's init wins still summarises;
- on a seeded COGCOMP run the four phase spans exactly match the
  protocol's ``phase2_start`` / ``phase3_start`` / ``phase4_start``
  timetable;
- the exported Chrome-trace JSON validates against its schema;
- span node extents, folded from each event's broadcasters and
  listeners, equal every node's first and last non-idle action;
- a reused probe reports each run's own timetable, and a bounded trace
  beside it bounds only itself;
- the fast path still engages when no event sink is attached.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.analysis.theory import cogcast_slot_bound
from repro.assignment import shared_core
from repro.core.aggregation import SumAggregator
from repro.core.cogcast import CogCast
from repro.core.cogcomp import CogComp
from repro.core.messages import (
    AckPayload,
    ClusterSizePayload,
    CountPayload,
    InitPayload,
    MediatorAnnouncePayload,
    ValueReportPayload,
)
from repro.core.runners import run_data_aggregation, run_local_broadcast
from repro.core.tree import DistributionTree, InformEdge, TreeError
from repro.obs.export import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.spans import Span, SpanProbe, payload_kind
from repro.sim.actions import Envelope, Idle
from repro.sim.adversary import RandomJammer
from repro.sim.backends import AllInformed
from repro.sim.channels import Network
from repro.sim.engine import Engine, build_engine, make_views
from repro.sim.protocol import IdleProtocol
from repro.sim.rng import derive_rng
from repro.sim.trace import ChannelEvent, EventTrace


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


def _init(slot, sender, listeners, channel=0):
    """One channel event whose winner is *sender*'s init broadcast."""
    return ChannelEvent(
        slot=slot,
        channel=channel,
        broadcasters=(sender,),
        listeners=tuple(listeners),
        winner=Envelope(sender=sender, payload=InitPayload(origin=0)),
    )


def _fold(num_nodes, *events):
    """A span probe that has folded *events* as one run."""
    probe = SpanProbe()
    probe.start(num_nodes=num_nodes)
    for event in events:
        probe.record(event)
    probe.finish(events[-1].slot + 1)
    return probe


class TestSpanTree:
    """The probe's tree, inform edges and tree summary."""

    def _probe(self):
        #      0
        #     / \
        #    1   2      (slots 1, 2)
        #   / \
        #  3   4        (slots 3, 5)
        return _fold(
            5,
            _init(1, 0, [1]),
            _init(2, 0, [2], channel=1),
            _init(3, 1, [3]),
            _init(5, 1, [4]),
        )

    def test_critical_path_is_last_informed(self):
        critical = self._probe().critical_path()
        assert [e.child for e in critical] == [1, 4]
        assert critical[-1].slot == 5
        assert SpanProbe().critical_path() == ()

    def test_iteration_is_in_informing_order(self):
        # Fold slot 4 on channel 3 (informing 4) before channel 0 (3).
        probe = _fold(
            5,
            _init(0, 0, [2, 1]),
            _init(4, 1, [4], channel=3),
            _init(4, 2, [3], channel=0),
        )
        assert list(probe.edges) == [2, 1, 4, 3]
        informs = [
            event["args"] for event in chrome_trace(probe)["traceEvents"]
            if event["ph"] == "i"
        ]
        assert [(e["slot"], e["child"]) for e in informs] == [
            (0, 1), (0, 2), (4, 3), (4, 4)
        ]

    def test_stats(self):
        stats = self._probe().summary()["tree"]
        assert stats == {
            "nodes": 5,
            "edges": 4,
            "max_depth": 2,
            "critical_path_slots": 6,
            "last_informed_slot": 5,
            "max_fanout": 2,
            "mean_fanout": 2.0,
        }
        source_only = _fold(8, _init(0, 7, [])).summary()["tree"]
        assert source_only == {
            "nodes": 1,
            "edges": 0,
            "max_depth": 0,
            "critical_path_slots": 0,
            "last_informed_slot": None,
            "max_fanout": 0,
            "mean_fanout": 0.0,
        }

    def test_validate_clean(self):
        probe = self._probe()
        tree = probe.tree
        tree.validate()
        assert tree == DistributionTree.from_parents(0, [None, 0, 0, 1, 1])
        assert probe.edges == {
            1: _edge(0, 1, 1),
            2: _edge(0, 2, 2, channel=1),
            3: _edge(1, 3, 3),
            4: _edge(1, 4, 5),
        }

    def test_max_depth_is_the_height(self):
        # 0 -> 1 -> 2 -> 3 early, 0 -> 4 last: the last-informed node
        # sits at depth 1, the tree's height is 3.
        probe = _fold(
            5,
            _init(0, 0, [1]),
            _init(1, 1, [2]),
            _init(2, 2, [3]),
            _init(3, 0, [4]),
        )
        assert len(probe.critical_path()) == 1
        assert probe.tree.height() == 3
        assert probe.summary()["tree"]["max_depth"] == 3

    def test_forged_sender_still_summarises(self):
        # Node 5 was never informed, yet its init wins and informs 6
        # last: a planted fault the tree must survive.
        probe = _fold(
            7,
            _init(0, 0, [1, 2]),
            _init(1, 1, [3]),
            _init(2, 5, [6]),
        )
        summary = probe.summary()
        assert summary["informed"] == 5  # 0, 1, 2, 3 and the forged 6
        assert summary["tree"] == {
            "nodes": 4,
            "edges": 4,
            "max_depth": 2,
            "critical_path_slots": 3,
            "last_informed_slot": 2,
            "max_fanout": 2,
            "mean_fanout": 1.5,
        }
        tree = probe.tree
        assert tree.nodes == frozenset({0, 1, 2, 3})
        assert tree.parents[6] == 5 and tree.parents[5] is None
        with pytest.raises(TreeError):
            tree.validate()
        with pytest.raises(TreeError):
            probe.critical_path()


class TestSpanProbeCogcast:
    def test_tree_matches_protocol_ground_truth(self, medium_network):
        probe = SpanProbe()
        result = run_local_broadcast(
            medium_network, seed=7, max_slots=2000, spans=probe,
            require_completion=True,
        )
        tree, edges = probe.tree, probe.edges
        assert tree.root == probe.source == 0
        tree.validate()
        # Node set == the run's informed set (here: everyone).
        assert tree.nodes == probe.informed
        assert tree.nodes == frozenset(range(medium_network.num_nodes))
        # Edge-for-edge agreement with protocol-side bookkeeping.
        assert tree.parents == tuple(result.parents)
        for node in range(medium_network.num_nodes):
            if node == tree.root:
                continue
            assert edges[node].slot == result.informed_slots[node]
            # Every parent was informed strictly before its child.
            parent = edges[node].parent
            if parent != tree.root:
                assert edges[parent].slot < edges[node].slot

    def test_exhausted_budget_leaves_a_partial_tree(self, medium_network):
        probe = SpanProbe()
        result = run_local_broadcast(
            medium_network, seed=7, max_slots=8, spans=probe
        )
        assert not result.completed
        tree = probe.tree
        assert tree.nodes == probe.informed
        assert len(tree.nodes) == 16 and tree.height() == 3
        unreached = set(range(medium_network.num_nodes)) - tree.nodes
        for node in sorted(unreached):
            assert tree.parents[node] is None
            with pytest.raises(TreeError, match=f"node {node} is not reached"):
                tree.depth(node)
        height = max(tree.depth(node) for node in tree.nodes)
        assert probe.summary()["tree"]["max_depth"] == tree.height() == height

    def test_probe_resets_between_runs(self, small_network):
        probe = SpanProbe()
        run_local_broadcast(small_network, seed=1, max_slots=500, spans=probe)
        first = probe.edges
        run_local_broadcast(small_network, seed=1, max_slots=500, spans=probe)
        assert probe.edges == first  # identical run, not accumulated

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
        assert len(informs) == len(probe.edges)

        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, probe)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert len(loaded["traceEvents"]) == count

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        bad_ts = {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": -1, "dur": 0}
        problems = validate_chrome_trace({"traceEvents": [bad_ts]})
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)


class TestFastPathInteraction:
    def _engine(self, network, **options):
        return build_engine(
            network, lambda view: IdleProtocol(view), seed=0, **options
        )

    def test_fast_path_engages_without_probe(self, small_network):
        engine = self._engine(small_network)
        engine.run(5)
        assert engine.fast_path_engaged is True

    def test_span_probe_disengages_fast_path(self, small_network):
        engine = self._engine(small_network, trace=SpanProbe())
        engine.run(5)
        assert engine.fast_path_engaged is False


class TestSpanProbeUnit:
    def test_inform_edges_skip_jammed_listeners(self):
        probe = SpanProbe()
        probe.start(num_nodes=4)
        event = ChannelEvent(
            slot=0,
            channel=0,
            broadcasters=(0,),
            listeners=(1, 2),
            winner=Envelope(sender=0, payload=InitPayload(origin=0)),
            jammed_nodes=frozenset({2}),
        )
        probe.record(event)
        probe.finish(1)
        assert probe.edges == {1: _edge(0, 1, 0)}

    def test_first_inform_wins(self):
        probe = SpanProbe()
        probe.start(num_nodes=3)
        first = ChannelEvent(
            slot=0, channel=0, broadcasters=(0,), listeners=(1,),
            winner=Envelope(sender=0, payload=InitPayload(origin=0)),
        )
        again = ChannelEvent(
            slot=1, channel=1, broadcasters=(0,), listeners=(1, 2),
            winner=Envelope(sender=0, payload=InitPayload(origin=0)),
        )
        probe.record(first)
        probe.record(again)
        assert probe.edges[1].slot == 0  # not overwritten at slot 1
        assert probe.edges[2].slot == 1


class ActionLog:
    """Wraps a protocol and records the slots of its non-idle actions."""

    def __init__(self, inner):
        self.inner = inner
        self.extent = None
        self.idle_slots = 0

    @property
    def done(self):
        return self.inner.done

    def begin_slot(self, slot):
        action = self.inner.begin_slot(slot)
        if isinstance(action, Idle):
            self.idle_slots += 1
        else:
            first = slot if self.extent is None else self.extent[0]
            self.extent = (first, slot)
        return action

    def end_slot(self, slot, outcome):
        self.inner.end_slot(slot, outcome)


def _action_extents(protocols):
    return {
        node: protocol.extent
        for node, protocol in enumerate(protocols)
        if protocol.extent is not None
    }


class TestNodeExtents:
    """Extents folded from events equal each node's non-idle actions."""

    def test_cogcomp_run_with_idle_slots(self, small_network):
        n = small_network.num_nodes
        l = cogcast_slot_bound(
            n, small_network.channels_per_node, small_network.overlap
        )
        protocols = [
            ActionLog(
                CogComp(
                    view,
                    phase1_slots=l,
                    value=float(view.node_id + 1),
                    aggregator=SumAggregator(),
                    is_source=view.node_id == 0,
                )
            )
            for view in make_views(small_network, 5)
        ]
        spans = SpanProbe()
        spans.start(num_nodes=n, phase1_slots=l)
        engine = Engine(small_network, protocols, seed=5, trace=spans)
        result = engine.run(
            2 * l + n + 3 * (6 * n + 64), stop_when=lambda _: protocols[0].done
        )
        spans.finish(result.slots)
        assert result.completed
        assert sum(protocol.idle_slots for protocol in protocols) > 0
        assert spans.node_extents() == _action_extents(protocols)

    def test_jammed_cogcast_run(self, medium_network):
        universe = sorted(medium_network.assignment_at(0).universe)
        protocols = [
            ActionLog(CogCast(view, is_source=view.node_id == 0))
            for view in make_views(medium_network, 3)
        ]
        spans = SpanProbe()
        spans.start(num_nodes=medium_network.num_nodes)
        engine = Engine(
            medium_network,
            protocols,
            seed=3,
            trace=spans,
            jammer=RandomJammer(universe, 3, derive_rng(3, "test-spans-jam")),
        )
        result = engine.run(
            2000, stop_when=AllInformed([p.inner for p in protocols])
        )
        spans.finish(result.slots)
        assert result.completed
        assert spans.node_extents() == _action_extents(protocols)


def _network(n, c, k, seed=0):
    return Network.static(shared_core(n, c, k, random.Random(seed)))


class TestSpanProbeReuse:
    def test_each_run_reports_its_own_timetable(self):
        # l is 72 at n=8 and 111 at n=24 (c=6, k=2).
        small, large = _network(8, 6, 2), _network(24, 6, 2)
        reused = SpanProbe()
        run_data_aggregation(small, [1.0] * 8, seed=0, spans=reused)
        run_data_aggregation(large, [1.0] * 24, seed=0, spans=reused)
        fresh = SpanProbe()
        run_data_aggregation(large, [1.0] * 24, seed=0, spans=fresh)
        phases = {span.name: span for span in reused.spans()}
        assert (phases["phase1"].start, phases["phase1"].end) == (0, 111)
        assert reused.summary() == fresh.summary()
        # A COGCAST run afterwards has no COGCOMP timetable at all.
        run_local_broadcast(small, seed=0, max_slots=500, spans=reused)
        assert [span.kind for span in reused.spans()] == ["run"]

    def test_bounded_trace_bounds_only_itself(self, medium_network):
        traced, bounded = SpanProbe(), EventTrace(max_events=5)
        run_local_broadcast(
            medium_network, seed=7, max_slots=2000, spans=traced, trace=bounded
        )
        alone = SpanProbe()
        run_local_broadcast(medium_network, seed=7, max_slots=2000, spans=alone)
        assert len(bounded) == 5
        assert traced.summary() == alone.summary()
        assert traced.node_extents() == alone.node_extents()
