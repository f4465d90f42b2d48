"""Tests for repro.core.gossip — the multi-message extension."""

from __future__ import annotations

import random

import pytest

from repro.assignment import identical, shared_core
from repro.core.gossip import GossipCast
from repro.core.runners import run_gossip
from repro.sim import Network


def network(n=12, c=6, k=2, seed=0) -> Network:
    rng = random.Random(seed)
    return Network.static(
        shared_core(n, c, k, rng).shuffled_labels(rng), validate=False
    )


class TestRunGossip:
    def test_single_source_equals_broadcast_semantics(self):
        net = network()
        result = run_gossip(net, {0: "only"}, seed=0, max_slots=100_000)
        assert result.completed
        assert result.messages == 1
        assert all(count == 1 for count in result.coverage)

    def test_all_messages_reach_everyone(self):
        net = network()
        sources = {0: "a", 3: "b", 7: "c"}
        result = run_gossip(net, sources, seed=1, max_slots=500_000)
        assert result.completed
        assert all(count >= 3 for count in result.coverage)

    def test_every_node_a_source(self):
        net = network(n=6, c=4, k=2)
        sources = {node: f"m{node}" for node in range(6)}
        result = run_gossip(net, sources, seed=2, max_slots=1_000_000)
        assert result.completed
        assert all(count == 6 for count in result.coverage)

    def test_single_channel_world(self):
        net = Network.static(identical(6, 1))
        result = run_gossip(net, {0: "x", 1: "y"}, seed=3, max_slots=100_000)
        assert result.completed

    def test_budget_exhaustion_reports_partial_coverage(self):
        net = network()
        result = run_gossip(net, {0: "a", 1: "b"}, seed=4, max_slots=1)
        assert not result.completed
        assert any(count < 2 for count in result.coverage)

    def test_validation(self):
        net = network()
        with pytest.raises(ValueError, match="at least one"):
            run_gossip(net, {}, seed=0, max_slots=10)
        with pytest.raises(ValueError, match="out of range"):
            run_gossip(net, {99: "x"}, seed=0, max_slots=10)


class TestGossipProtocolUnit:
    def test_empty_node_listens(self):
        from repro.sim import Listen
        from repro.sim.rng import derive_rng
        from repro.sim.protocol import NodeView

        view = NodeView(0, 4, 2, 8, derive_rng(0, "g", 0))
        protocol = GossipCast(view)
        assert isinstance(protocol.begin_slot(0), Listen)

    def test_more_than_one_initial_message_is_refused(self):
        """``known`` is keyed by origin, so a second message would be dropped."""
        from repro.sim.rng import derive_rng
        from repro.sim.protocol import NodeView

        view = NodeView(2, 4, 2, 8, derive_rng(0, "g", 2))
        with pytest.raises(ValueError, match="at most one message, got 2"):
            GossipCast(view, initial=["a", "b"])
        assert list(GossipCast(view, initial=["a"]).known) == [2]
        assert GossipCast(view, initial=()).known == {}

    def test_source_broadcasts_own_message(self):
        from repro.sim import Broadcast
        from repro.sim.rng import derive_rng
        from repro.sim.protocol import NodeView

        view = NodeView(2, 4, 2, 8, derive_rng(0, "g", 2))
        protocol = GossipCast(view, initial=["hello"])
        action = protocol.begin_slot(0)
        assert isinstance(action, Broadcast)
        assert action.payload.origin == 2

    def test_learns_from_lost_contention(self):
        """A broadcaster that loses absorbs the winner's message."""
        from repro.sim.actions import Broadcast as B, Envelope, SlotOutcome
        from repro.core.messages import InitPayload
        from repro.sim.rng import derive_rng
        from repro.sim.protocol import NodeView

        view = NodeView(1, 4, 2, 8, derive_rng(0, "g", 1))
        protocol = GossipCast(view, initial=["mine"])
        action = protocol.begin_slot(0)
        winner = Envelope(sender=5, payload=InitPayload(origin=5, body="theirs"))
        protocol.end_slot(
            0, SlotOutcome(slot=0, action=action, received=winner, success=False)
        )
        assert 5 in protocol.known
        assert protocol.first_heard[5] == 0
