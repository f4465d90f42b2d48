"""Live invariant watchdogs: paper guarantees checked while a run unfolds.

The paper's theorems promise structural properties — all nodes informed
within the Theorem 4 slot budget, one mediator per used channel, cluster
sizes agreeing between phases two and three, an informed set that only
grows.  A :class:`WatchdogProbe` checks one such invariant against the
engine-side channel-event stream and, on violation, records a structured
:class:`Anomaly` instead of crashing the run: anomalies flow into the
JSONL telemetry stream as validated ``kind="anomaly"`` records
(:func:`repro.obs.telemetry.anomaly_record`), where ``repro obs
anomalies`` surfaces them.

Watchdogs are streaming event sinks, like
:class:`~repro.obs.spans.SpanProbe`: ``start`` a run, ``record`` each
:class:`~repro.sim.trace.ChannelEvent` as the engine emits it, and
``finish`` with the run length.  The runners' ``watchdogs=`` does all
three and fans the events out with any trace and spans; with no
watchdog attached, nothing is checked and nothing costs.  Checks stay
per event because final state cannot see every fault: a non-mediator
that forges ``MediatorAnnounce`` while its own state stays honest shows
only on the channel.  Like :mod:`repro.obs.spans`, payloads are
classified structurally (:func:`~repro.obs.spans.payload_kind`), never
by importing protocol modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping

from repro.obs.spans import payload_kind
from repro.obs.telemetry import anomaly_record
from repro.sim.trace import ChannelEvent
from repro.types import Channel, NodeId, Slot


@dataclass(frozen=True)
class Anomaly:
    """One observed violation of a protocol invariant.

    Attributes
    ----------
    rule: the watchdog's rule name (e.g. ``"mediator-unique"``).
    slot: the slot at which the violation was observed.
    message: human-readable description.
    data: structured context (JSON-ready) for the telemetry record.
    """

    rule: str
    slot: Slot
    message: str
    data: Mapping[str, Any] = field(default_factory=dict)


class WatchdogProbe:
    """Base class: an event sink that accumulates :class:`Anomaly` records.

    Subclasses set :attr:`rule`, fold events in :meth:`record`, and call
    :meth:`alarm` when an invariant breaks.  Anomalies accumulate on
    :attr:`anomalies` (reset by :meth:`start`); :meth:`as_records`
    renders them as telemetry records and :func:`flush_anomalies` emits
    a batch to a sink.
    """

    #: Rule name stamped into every anomaly this watchdog raises.
    rule = "watchdog"

    def __init__(self) -> None:
        self.anomalies: list[Anomaly] = []
        self._alarm_keys: set[Hashable] = set()

    def start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Reset accumulated anomalies for a run on ``(n, c, k)``."""
        self.anomalies = []
        self._alarm_keys = set()

    def record(self, event: ChannelEvent) -> None:
        """Check one channel event."""

    def finish(self, slots: int) -> None:
        """The run ended after *slots* slots, counted from slot 0."""

    def alarm(
        self,
        slot: Slot,
        message: str,
        *,
        key: Hashable | None = None,
        **data: Any,
    ) -> None:
        """Record one anomaly; *key* (when given) deduplicates repeats."""
        if key is not None:
            if key in self._alarm_keys:
                return
            self._alarm_keys.add(key)
        self.anomalies.append(
            Anomaly(rule=self.rule, slot=slot, message=message, data=dict(data))
        )

    def as_records(
        self, *, seed: int, protocol: str | None = None
    ) -> list[dict[str, Any]]:
        """The accumulated anomalies as telemetry ``anomaly`` records."""
        return [
            anomaly_record(
                rule=anomaly.rule,
                seed=seed,
                slot=anomaly.slot,
                message=anomaly.message,
                protocol=protocol,
                detail=dict(anomaly.data) or None,
            )
            for anomaly in self.anomalies
        ]


class SlotBudgetWatchdog(WatchdogProbe):
    """Theorem 4 alarm: all nodes informed within the slot budget.

    The budget defaults to :func:`repro.analysis.theory.cogcast_slot_bound`
    — ``constant * (c/k) * max{1, c/n} * lg n`` — computed from the run's
    ``(n, c, k)`` at :meth:`start`; pass ``budget`` to pin an explicit
    slot count instead.  One anomaly fires (at most once per run) when a
    slot at or past the budget begins with the informed set still
    incomplete.  Slot begins are read off the event stream: the first
    event of a slot, and :meth:`finish`, check every slot that began
    since the last check, all of which saw the same informed set.
    """

    rule = "slot-budget"

    def __init__(self, *, constant: float = 8.0, budget: int | None = None) -> None:
        super().__init__()
        self.constant = constant
        self._configured_budget = budget
        self.budget: int | None = budget
        self._n = 0
        self._informed: set[NodeId] = set()
        #: The first slot whose begin is not checked yet.
        self._unchecked = 0

    def start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Compute the Theorem 4 budget for this run's ``(n, c, k)``."""
        super().start(num_nodes=num_nodes, num_channels=num_channels, overlap=overlap)
        self._n = num_nodes
        self._informed = set()
        self._unchecked = 0
        if self._configured_budget is not None:
            self.budget = self._configured_budget
        else:
            from repro.analysis.theory import cogcast_slot_bound

            self.budget = cogcast_slot_bound(
                num_nodes, num_channels, overlap, constant=self.constant
            )

    def _check_begins(self, last: Slot) -> None:
        """Check every slot begin from the first unchecked one through *last*.

        All of them saw the current informed set, so the first one at or
        past the budget is the slot a per-slot check would alarm at.
        """
        if self.budget is not None:
            slot = max(self._unchecked, self.budget)
            if slot <= last and 0 < len(self._informed) < self._n:
                self.alarm(
                    slot,
                    f"{self._n - len(self._informed)} of {self._n} nodes "
                    f"uninformed at slot {slot} (budget {self.budget})",
                    key="budget",
                    informed=len(self._informed),
                    nodes=self._n,
                    budget=self.budget,
                )
        self._unchecked = last + 1

    def record(self, event: ChannelEvent) -> None:
        """Check the slot begins up to this event; track the informed set."""
        if event.slot >= self._unchecked:
            self._check_begins(event.slot)
        winner = event.winner
        if winner is None or payload_kind(winner.payload) != "init":
            return
        self._informed.add(winner.sender)
        for node in event.listeners:
            if node not in event.jammed_nodes:
                self._informed.add(node)

    def finish(self, slots: int) -> None:
        """Check the slot begins after the last event."""
        self._check_begins(slots - 1)


class MediatorUniquenessWatchdog(WatchdogProbe):
    """COGCOMP invariant: at most one mediator announces per channel.

    Phase two elects exactly one mediator per used channel (the minimum
    id in the last-informed cluster); every winning
    ``MediatorAnnounce`` therefore comes from the same sender on any
    given channel.  A second distinct announcer raises one anomaly per
    offending channel.
    """

    rule = "mediator-unique"

    def __init__(self) -> None:
        super().__init__()
        self._announcers: dict[Channel, set[NodeId]] = {}

    def start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Reset the per-channel announcer sets."""
        super().start(num_nodes=num_nodes, num_channels=num_channels, overlap=overlap)
        self._announcers = {}

    def record(self, event: ChannelEvent) -> None:
        """Track announce winners; alarm on a second sender per channel."""
        winner = event.winner
        if winner is None or payload_kind(winner.payload) != "announce":
            return
        senders = self._announcers.setdefault(event.channel, set())
        senders.add(winner.sender)
        if len(senders) > 1:
            self.alarm(
                event.slot,
                f"channel {event.channel} has {len(senders)} distinct mediator "
                f"announcers: {sorted(senders)}",
                key=event.channel,
                channel=event.channel,
                announcers=sorted(senders),
            )


class ClusterSizeAgreementWatchdog(WatchdogProbe):
    """COGCOMP invariant: phase-three sizes match the phase-two census.

    During the phase-two census every channel member's ``Count``
    message wins exactly once (winners go silent, so the broadcaster
    pool strictly shrinks — Lemma 7), so the distinct census winners
    for a ``(channel, informed_slot)`` cluster *are* that cluster.
    Phase three's ``ClusterSize`` report for the same cluster must
    carry exactly that count.  One anomaly per disagreeing cluster.
    """

    rule = "cluster-size"

    def __init__(self) -> None:
        super().__init__()
        self._census: dict[tuple[Channel, Slot], set[NodeId]] = {}

    def start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Reset the census roster."""
        super().start(num_nodes=num_nodes, num_channels=num_channels, overlap=overlap)
        self._census = {}

    def record(self, event: ChannelEvent) -> None:
        """Record census broadcasters; check cluster-size reports."""
        winner = event.winner
        if winner is None:
            return
        kind = payload_kind(winner.payload)
        if kind == "census":
            members = self._census.setdefault(
                (event.channel, winner.payload.informed_slot), set()
            )
            members.add(winner.payload.node)
        elif kind == "cluster-size":
            key = (event.channel, winner.payload.informed_slot)
            members = self._census.get(key)
            if members is not None and winner.payload.size != len(members):
                self.alarm(
                    event.slot,
                    f"cluster (channel {event.channel}, informed slot "
                    f"{winner.payload.informed_slot}) reported size "
                    f"{winner.payload.size}, census saw {len(members)}",
                    key=key,
                    channel=event.channel,
                    cluster_slot=winner.payload.informed_slot,
                    reported=winner.payload.size,
                    census=len(members),
                )


class InformedSetWatchdog(WatchdogProbe):
    """COGCAST invariant: only informed nodes broadcast, and the informed
    set grows monotonically.

    Every init broadcaster must already be in the informed set (seeded
    by the source — configured, or inferred from the first init winner);
    a broadcast from outside it means protocol state went backwards or a
    node fabricated the message.  One anomaly per offending node.
    """

    rule = "informed-set"

    def __init__(self, *, source: NodeId | None = None) -> None:
        super().__init__()
        self._configured_source = source
        self._informed: set[NodeId] = set()

    def start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Reset the informed set (re-seeded by the first init winner)."""
        super().start(num_nodes=num_nodes, num_channels=num_channels, overlap=overlap)
        self._informed = set()
        if self._configured_source is not None:
            self._informed.add(self._configured_source)

    def record(self, event: ChannelEvent) -> None:
        """Check init broadcasters against the tracked informed set."""
        winner = event.winner
        if winner is None or payload_kind(winner.payload) != "init":
            return
        if not self._informed:
            # First init traffic: the winner is the source by
            # construction (only the source is informed at slot 0).
            self._informed.add(winner.sender)
        for node in sorted(event.broadcasters):
            if node not in self._informed:
                self.alarm(
                    event.slot,
                    f"node {node} broadcast init at slot {event.slot} without "
                    f"having been informed",
                    key=node,
                    node=node,
                    channel=event.channel,
                )
        for node in event.listeners:
            if node not in event.jammed_nodes:
                self._informed.add(node)


def flush_anomalies(
    sink: Any,
    watchdogs: Iterable[WatchdogProbe],
    *,
    seed: int,
    protocol: str | None = None,
) -> int:
    """Emit every watchdog's anomalies to *sink*; return how many.

    *sink* is any object with ``emit(record)`` — typically a
    :class:`repro.obs.telemetry.TelemetrySink`.  Records are emitted in
    watchdog order, then anomaly order, so replays are byte-stable.
    """
    count = 0
    for watchdog in watchdogs:
        for record in watchdog.as_records(seed=seed, protocol=protocol):
            sink.emit(record)
            count += 1
    return count
