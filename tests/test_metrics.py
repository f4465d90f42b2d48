"""Unit tests for repro.sim.metrics — trace analytics."""

from __future__ import annotations

import random

from repro.assignment import shared_core
from repro.core import run_local_broadcast
from repro.core.messages import InitPayload
from repro.sim import (
    EventTrace,
    Network,
    channel_utilization,
    compute_metrics,
    informed_curve,
)
from repro.sim.actions import Envelope
from repro.sim.trace import ChannelEvent


def handmade_trace() -> EventTrace:
    trace = EventTrace()
    init = InitPayload(origin=0)
    # Slot 0, channel 1: two contenders, one listener -> collision + delivery.
    trace.record(
        ChannelEvent(0, 1, broadcasters=(0, 2), listeners=(1,), winner=Envelope(0, init))
    )
    # Slot 0, channel 5: lone listener hears silence.
    trace.record(ChannelEvent(0, 5, broadcasters=(), listeners=(3,), winner=None))
    # Slot 1, channel 1: single broadcaster, two listeners, one jammed.
    trace.record(
        ChannelEvent(
            1,
            1,
            broadcasters=(0,),
            listeners=(3, 4),
            winner=Envelope(0, init),
            jammed_nodes=frozenset({4}),
        )
    )
    return trace


class TestComputeMetrics:
    def test_counts(self):
        metrics = compute_metrics(handmade_trace())
        assert metrics.slots_observed == 2
        assert metrics.transmissions == 3
        assert metrics.successes == 2
        assert metrics.collisions == 1
        assert metrics.deliveries == 2  # node 1 (slot 0) + node 3 (slot 1)
        assert metrics.wasted_listens == 2  # node 3 silent + node 4 jammed
        assert metrics.distinct_channels_used == 2
        assert metrics.peak_channel_contention == 2

    def test_rates(self):
        metrics = compute_metrics(handmade_trace())
        assert metrics.collision_rate == 0.5
        assert metrics.delivery_efficiency == 0.5

    def test_empty_trace(self):
        metrics = compute_metrics(EventTrace())
        assert metrics.slots_observed == 0
        assert metrics.delivery_efficiency == 0.0
        assert metrics.collision_rate == 0.0


def jammed_trace() -> EventTrace:
    """A trace in which every contended slot was jammed into silence."""
    trace = EventTrace()
    init = InitPayload(origin=0)
    # Slot 0: two contenders, jammed to nothing; listener 3 also jammed.
    trace.record(
        ChannelEvent(
            0,
            1,
            broadcasters=(0, 2),
            listeners=(1, 3),
            winner=None,
            jammed_nodes=frozenset({0, 2, 3}),
        )
    )
    # Slot 1: clean single-broadcaster delivery to node 1.
    trace.record(
        ChannelEvent(1, 1, broadcasters=(0,), listeners=(1,), winner=Envelope(0, init))
    )
    return trace


class TestJammedRunMetrics:
    def test_undelivered_contended_counted(self):
        metrics = compute_metrics(jammed_trace())
        assert metrics.collisions == 1
        assert metrics.undelivered_contended == 1
        assert metrics.successes == 1

    def test_collision_rate_counts_jammed_contention(self):
        # The historical successes-only denominator reported 1/1 here
        # despite half the active channel-slots being contended-and-lost;
        # the corrected denominator is successes + undelivered contended.
        metrics = compute_metrics(jammed_trace())
        assert metrics.collision_rate == 0.5

    def test_all_contention_jammed_still_reports_rate(self):
        trace = EventTrace()
        trace.record(
            ChannelEvent(
                0,
                1,
                broadcasters=(0, 2),
                listeners=(1,),
                winner=None,
                jammed_nodes=frozenset({0, 1, 2}),
            )
        )
        metrics = compute_metrics(trace)
        assert metrics.successes == 0
        assert metrics.collision_rate == 1.0

    def test_jammed_listeners_waste_their_slots(self):
        metrics = compute_metrics(jammed_trace())
        # Slot 0: nodes 1 and 3 heard nothing (3 jammed); slot 1: node 1 heard.
        assert metrics.deliveries == 1
        assert metrics.wasted_listens == 2
        assert metrics.delivery_efficiency == 1 / 3

    def test_jammed_overlapping_listeners_on_delivered_slot(self):
        # A winner exists but one listener is jammed: the jammed listener
        # wastes the slot, the live one is delivered to.
        trace = EventTrace()
        init = InitPayload(origin=0)
        trace.record(
            ChannelEvent(
                0,
                2,
                broadcasters=(0,),
                listeners=(1, 2),
                winner=Envelope(0, init),
                jammed_nodes=frozenset({2}),
            )
        )
        metrics = compute_metrics(trace)
        assert metrics.deliveries == 1
        assert metrics.wasted_listens == 1
        assert metrics.undelivered_contended == 0


class TestChannelUtilization:
    def test_counts_successful_slots(self):
        usage = channel_utilization(handmade_trace())
        assert usage[1] == 2
        assert 5 not in usage


class TestInformedCurve:
    def test_handmade(self):
        curve = informed_curve(handmade_trace(), root=0)
        # Slot 0 informs node 1; slot 1 informs node 3 (node 4 jammed).
        assert curve == [(0, 2), (1, 3)]

    def test_matches_real_run(self):
        rng = random.Random(5)
        network = Network.static(
            shared_core(12, 6, 2, rng).shuffled_labels(rng), validate=False
        )
        trace = EventTrace()
        result = run_local_broadcast(
            network, seed=5, max_slots=50_000, trace=trace
        )
        assert result.completed
        curve = informed_curve(trace, root=0)
        # Monotone, ends with everyone, ends at the completion slot.
        counts = [count for _, count in curve]
        assert counts == sorted(counts)
        assert counts[-1] == 12
        assert curve[-1][0] == max(
            slot for slot in result.informed_slots if slot is not None
        )
