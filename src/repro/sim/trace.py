"""Execution traces: an engine-level record of what happened each slot.

Protocols keep whatever private logs they need (COGCOMP's phases depend
on per-node logs); the :class:`EventTrace` here is *analysis-side*
ground truth, used by tests and experiments to verify protocol-side
bookkeeping against what physically happened — e.g. rebuilding the
distribution tree from the trace and comparing it to the tree COGCAST
participants believe they are part of.

Recording every slot of a long run can be memory-heavy, so tracing is
opt-in on the engine and the trace can be bounded.  The engine's
``trace`` slot takes any *event sink*, an object with ``record(event)``
called in (slot, channel) order: an :class:`EventTrace` retains events,
while the streaming sinks of :mod:`repro.obs` (spans and the
mediator-uniqueness watchdog) fold each event as it arrives and keep
none.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, MutableSequence

from repro.sim.actions import Envelope
from repro.types import Channel, NodeId, Slot, slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class ChannelEvent:
    """Everything that happened on one physical channel in one slot.

    Attributes
    ----------
    slot: the slot index.
    channel: the physical channel.
    broadcasters: node ids that broadcast on the channel.
    listeners: node ids that listened on the channel.
    winner: the envelope that was heard, if any.
    jammed_nodes: subset of participants whose view of this channel was
        jammed by an adversary this slot.
    """

    slot: Slot
    channel: Channel
    broadcasters: tuple[NodeId, ...]
    listeners: tuple[NodeId, ...]
    winner: Envelope | None
    jammed_nodes: frozenset[NodeId] = frozenset()

    @property
    def delivered(self) -> bool:
        """Whether any listener actually received a message."""
        return self.winner is not None and any(
            node not in self.jammed_nodes for node in self.listeners
        )


@dataclass
class EventTrace:
    """An append-only log of :class:`ChannelEvent` records.

    Parameters
    ----------
    max_slots:
        If set, events from slots beyond this bound are dropped (the
        engine keeps running; only the record is truncated).  Keeps the
        *head* of the run.
    max_events:
        If set, the trace holds at most this many events, discarding
        the oldest as new ones arrive (ring-buffer semantics, O(1) per
        record).  Keeps the *tail* of the run — the right bound for
        "capture the end of a long run that misbehaved".  Composable
        with ``max_slots``.
    """

    max_slots: int | None = None
    max_events: int | None = None
    events: MutableSequence[ChannelEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.max_events is not None:
            if self.max_events < 1:
                raise ValueError("max_events must be positive")
            self.events = deque(self.events, maxlen=self.max_events)

    def record(self, event: ChannelEvent) -> None:
        if self.max_slots is not None and event.slot >= self.max_slots:
            return
        self.events.append(event)

    def __iter__(self) -> Iterator[ChannelEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def slots(self) -> set[Slot]:
        return {event.slot for event in self.events}

    def events_in_slot(self, slot: Slot) -> list[ChannelEvent]:
        return [event for event in self.events if event.slot == slot]

    def deliveries(self) -> Iterator[ChannelEvent]:
        """Events in which at least one listener received a message."""
        return (event for event in self.events if event.delivered)

    def first_delivery_to(self, node: NodeId) -> ChannelEvent | None:
        """The first event in which *node*, as a listener, received a message."""
        for event in self.events:
            if (
                event.winner is not None
                and node in event.listeners
                and node not in event.jammed_nodes
            ):
                return event
        return None
