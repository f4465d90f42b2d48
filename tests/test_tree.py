"""Unit tests for repro.core.tree — distribution-tree structure checks."""

from __future__ import annotations

import pytest

from repro.core.messages import CountPayload, InitPayload
from repro.core.tree import DistributionTree, InformEdge, TreeError, first_informs
from repro.sim.actions import Envelope
from repro.sim.trace import ChannelEvent, EventTrace


def chain_tree() -> DistributionTree:
    """0 <- 1 <- 2 <- 3."""
    return DistributionTree.from_parents(0, [None, 0, 1, 2])


def star_tree() -> DistributionTree:
    """0 is everyone's parent."""
    return DistributionTree.from_parents(0, [None, 0, 0, 0])


class TestValidation:
    def test_accepts_chain(self):
        chain_tree()

    def test_accepts_star(self):
        star_tree()

    def test_rejects_missing_parent(self):
        with pytest.raises(TreeError, match="no parent"):
            DistributionTree.from_parents(0, [None, 0, None, 1])

    def test_rejects_root_with_parent(self):
        with pytest.raises(TreeError, match="root"):
            DistributionTree.from_parents(0, [1, 0])

    def test_rejects_cycle(self):
        with pytest.raises(TreeError, match="cycle|reach"):
            DistributionTree.from_parents(0, [None, 2, 1])

    def test_rejects_self_loop(self):
        with pytest.raises(TreeError):
            DistributionTree.from_parents(0, [None, 1])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(TreeError, match="out-of-range"):
            DistributionTree.from_parents(0, [None, 9])

    def test_rejects_out_of_range_root(self):
        with pytest.raises(TreeError, match="root"):
            DistributionTree.from_parents(5, [None, 0])


class TestQueries:
    def test_children(self):
        assert star_tree().children(0) == [1, 2, 3]
        assert chain_tree().children(1) == [2]
        assert chain_tree().children(3) == []

    def test_depth(self):
        tree = chain_tree()
        assert tree.depth(0) == 0
        assert tree.depth(3) == 3

    def test_height(self):
        assert chain_tree().height() == 3
        assert star_tree().height() == 1

    def test_subtree_size(self):
        tree = chain_tree()
        assert tree.subtree_size(0) == 4
        assert tree.subtree_size(2) == 2
        assert star_tree().subtree_size(0) == 4
        assert star_tree().subtree_size(1) == 1

    def test_edges(self):
        assert set(chain_tree().edges()) == {(0, 1), (1, 2), (2, 3)}

    def test_degree_histogram(self):
        assert star_tree().degree_histogram() == {3: 1, 0: 3}
        assert chain_tree().degree_histogram() == {1: 3, 0: 1}

    def test_nonzero_root(self):
        tree = DistributionTree.from_parents(2, [2, 2, None])
        assert tree.depth(0) == 1
        assert tree.children(2) == [0, 1]


class TestPartialTree:
    """Trees that reach only some nodes, as a span probe builds them."""

    def test_queries(self):
        #      0
        #     / \
        #    1   2
        #   / \
        #  3   4
        tree = DistributionTree(0, (None, 0, 0, 1, 1))
        assert tree.nodes == frozenset({0, 1, 2, 3, 4})
        assert tree.parents[0] is None
        assert tree.parents[3] == 1
        assert tree.children(0) == [1, 2]
        assert len(tree.children(1)) == 2
        assert len(tree.children(4)) == 0
        assert tree.depth(0) == 0
        assert tree.depth(4) == 2

    def test_nodes_are_those_reaching_the_root(self):
        # 2 is unreached, 3 hangs below it, 4 and 5 form a cycle.
        tree = DistributionTree(0, (None, 0, None, 2, 5, 4))
        assert tree.nodes == frozenset({0, 1})
        assert tree.height() == 1
        assert DistributionTree(0, (None, None)).height() == 0

    def test_depth_of_an_unreached_node_raises(self):
        tree = DistributionTree(0, (None, 0, None, 2, 5, 4))
        for node in (2, 3, 4, 5):
            with pytest.raises(TreeError, match=f"node {node} is not reached"):
                tree.depth(node)
        assert tree.depth(1) == 1


def _event(sender, listeners, payload=None, jammed=()):
    return ChannelEvent(
        slot=4,
        channel=7,
        broadcasters=(sender,),
        listeners=tuple(listeners),
        winner=Envelope(sender, payload or InitPayload(origin=0)),
        jammed_nodes=frozenset(jammed),
    )


class TestFirstInforms:
    def test_init_informs_fresh_unjammed_listeners(self):
        informed = {0, 2}
        edges = first_informs(_event(0, [1, 2, 3, 4], jammed={4}), informed)
        assert edges == [InformEdge(0, 1, 4, 7), InformEdge(0, 3, 4, 7)]
        assert informed == {0, 1, 2, 3}

    def test_other_payloads_and_silence_inform_nobody(self):
        informed = {0}
        census = _event(0, [1], payload=CountPayload(node=0, informed_slot=0))
        assert first_informs(census, informed) == []
        silent = ChannelEvent(
            slot=0, channel=0, broadcasters=(), listeners=(1,), winner=None
        )
        assert first_informs(silent, informed) == []
        assert informed == {0}


class TestFromTrace:
    def test_reconstruction(self):
        """Build a trace by hand and check the oracle tree."""
        trace = EventTrace()
        # Slot 0: source 0 informs 1 and 2 on channel 5.
        trace.record(
            ChannelEvent(
                slot=0,
                channel=5,
                broadcasters=(0,),
                listeners=(1, 2),
                winner=Envelope(0, InitPayload(origin=0)),
            )
        )
        # Slot 1: node 1 informs 3; node 2's reception of the same
        # message again must NOT re-parent it.
        trace.record(
            ChannelEvent(
                slot=1,
                channel=2,
                broadcasters=(1,),
                listeners=(3, 2),
                winner=Envelope(1, InitPayload(origin=0)),
            )
        )
        tree = DistributionTree.from_trace(trace, root=0, num_nodes=4)
        assert tree.parents == (None, 0, 0, 1)

    def test_jammed_listener_not_parented(self):
        trace = EventTrace()
        trace.record(
            ChannelEvent(
                slot=0,
                channel=0,
                broadcasters=(0,),
                listeners=(1,),
                winner=Envelope(0, InitPayload(origin=0)),
                jammed_nodes=frozenset({1}),
            )
        )
        trace.record(
            ChannelEvent(
                slot=1,
                channel=0,
                broadcasters=(0,),
                listeners=(1,),
                winner=Envelope(0, InitPayload(origin=0)),
            )
        )
        tree = DistributionTree.from_trace(trace, root=0, num_nodes=2)
        assert tree.parents == (None, 0)
