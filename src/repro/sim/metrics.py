"""Trace analytics: run-level metrics derived from an :class:`EventTrace`.

Experiments mostly report completion times; these helpers answer the
*why* questions — how contended were the channels, how much of the
spectrum did the protocol actually use, how often did collisions burn a
slot — without touching protocol internals.  Everything here is
analysis-side: algorithms never see these numbers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.sim.trace import EventTrace
from repro.types import Channel, Slot


@dataclass(frozen=True, slots=True)
class TraceMetrics:
    """Aggregate statistics over one traced execution.

    Attributes
    ----------
    slots_observed: distinct slots with at least one recorded event.
    transmissions: total broadcast attempts (jammed ones included).
    successes: channel-slots where some message won.
    collisions: channel-slots with two or more contenders, whether or
        not a message got through ("collision" means contention
        occurred; under the paper's single-winner model one contender
        still wins, but jammed or destructive-model slots may not
        deliver at all).
    undelivered_contended: the subset of ``collisions`` channel-slots
        in which *no* message won (all contenders jammed, or a
        destructive collision model) — the denominator correction for
        :attr:`collision_rate`.
    wasted_listens: listener-slots that received nothing.
    deliveries: listener-slots that received a message.
    distinct_channels_used: physical channels touched at least once.
    peak_channel_contention: the largest broadcaster count observed on
        any single channel in any slot.
    """

    slots_observed: int
    transmissions: int
    successes: int
    collisions: int
    wasted_listens: int
    deliveries: int
    distinct_channels_used: int
    peak_channel_contention: int
    undelivered_contended: int = 0

    @property
    def collision_rate(self) -> float:
        """Fraction of active channel-slots with contention.

        Active channel-slots are those where a transmission could have
        been heard: the successful ones plus the contended ones nothing
        survived (jammed / destructive).  Dividing by successes alone —
        the historical behaviour — reported a 0 rate for runs whose
        every contended slot was jammed.
        """
        active = self.successes + self.undelivered_contended
        return self.collisions / active if active else 0.0

    @property
    def delivery_efficiency(self) -> float:
        """Deliveries per listener-slot (how often listening paid off)."""
        total = self.deliveries + self.wasted_listens
        return self.deliveries / total if total else 0.0


def compute_metrics(trace: EventTrace) -> TraceMetrics:
    """Fold a trace into :class:`TraceMetrics` (single pass)."""
    slots: set[Slot] = set()
    channels: set[Channel] = set()
    transmissions = 0
    successes = 0
    collisions = 0
    undelivered_contended = 0
    wasted_listens = 0
    deliveries = 0
    peak = 0
    for event in trace:
        slots.add(event.slot)
        channels.add(event.channel)
        contenders = len(event.broadcasters)
        transmissions += contenders
        peak = max(peak, contenders)
        if event.winner is not None:
            successes += 1
        if contenders >= 2:
            collisions += 1
            if event.winner is None:
                undelivered_contended += 1
        live_listeners = [
            node for node in event.listeners if node not in event.jammed_nodes
        ]
        if event.winner is not None:
            deliveries += len(live_listeners)
        else:
            wasted_listens += len(live_listeners)
        wasted_listens += len(event.listeners) - len(live_listeners)
    return TraceMetrics(
        slots_observed=len(slots),
        transmissions=transmissions,
        successes=successes,
        collisions=collisions,
        undelivered_contended=undelivered_contended,
        wasted_listens=wasted_listens,
        deliveries=deliveries,
        distinct_channels_used=len(channels),
        peak_channel_contention=peak,
    )


def channel_utilization(trace: EventTrace) -> Counter[Channel]:
    """How many slots each physical channel carried a successful message."""
    used: Counter[Channel] = Counter()
    for event in trace:
        if event.winner is not None:
            used[event.channel] += 1
    return used


def informed_curve(trace: EventTrace, root: int) -> list[tuple[Slot, int]]:
    """The epidemic growth curve: (slot, cumulative informed count).

    Counts first deliveries of :class:`~repro.core.messages.InitPayload`
    per node (:func:`~repro.core.tree.first_informs`), starting from the
    root.  Returns one point per slot in which at least one node was
    newly informed.
    """
    from repro.core.tree import first_informs

    informed: set[int] = {root}
    curve: list[tuple[Slot, int]] = []
    for event in trace:
        if not first_informs(event, informed):
            continue
        if curve and curve[-1][0] == event.slot:
            curve[-1] = (event.slot, len(informed))
        else:
            curve.append((event.slot, len(informed)))
    return curve
