"""Invariant watchdogs: the paper's guarantees, checked on every run.

A :class:`WatchdogProbe` checks one of the paper's invariants — all
nodes informed within the Theorem 4 slot budget, each parent informed
before its child, cluster sizes agreeing with the census, one mediator
per used channel — and, on violation, records a structured
:class:`Anomaly` instead of crashing the run: anomalies flow into the
JSONL telemetry stream as validated ``kind="anomaly"`` records
(:func:`repro.obs.telemetry.anomaly_record`), where ``repro obs
anomalies`` surfaces them.

The runners' ``watchdogs=`` calls ``start`` before the run and
``finish(slots, protocols, network)`` after it.  Three rules are
statements about how a run ends, decided there from the protocols'
final state, so they cost no kernel.  A forged ``MediatorAnnounce``
from a node whose own state stays honest shows only on the channel, so
:class:`MediatorUniquenessWatchdog` also defines ``record(event)``: it
is an event sink, and the runners fan events out to it.  Payloads are
classified structurally (:func:`~repro.obs.spans.payload_kind`) rather
than by message class; through :mod:`repro.obs.spans` this module loads
:mod:`repro.core.tree` (Lemma 5's rule and its message type), but no
protocol module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping, Sequence

from repro.obs.spans import payload_kind
from repro.obs.telemetry import anomaly_record
from repro.sim.trace import ChannelEvent
from repro.types import Channel, NodeId, Slot

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.channels import Network


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


def _informed_slot(protocol: Any) -> Slot | None:
    """*protocol*'s informed slot: -1 for the source, ``None`` if never."""
    return -1 if protocol.is_source else protocol.informed_slot


class WatchdogProbe:
    """Base class: a run check that accumulates :class:`Anomaly` records.

    Subclasses set :attr:`rule`, decide the finished run in
    :meth:`finish`, and call :meth:`alarm` when an invariant breaks.
    Anomalies accumulate on :attr:`anomalies` (reset by :meth:`start`);
    :meth:`as_records` renders them as telemetry records and
    :func:`flush_anomalies` emits a batch to a sink.
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

    def finish(self, slots: int, protocols: Sequence[Any], network: "Network") -> None:
        """Check the run that ended after *slots* slots, counted from 0.

        *protocols* are the nodes' protocols in their final state, by
        node id; *network* is the network the run was on.
        """

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
    """Theorem 4: all nodes informed within the slot budget.

    The budget defaults to :func:`repro.analysis.theory.cogcast_slot_bound`
    — ``constant * (c/k) * max{1, c/n} * lg n`` — computed from the run's
    ``(n, c, k)`` at :meth:`start`; pass ``budget`` to pin an explicit
    slot count instead.  One anomaly, at the budget slot, when the run
    executed that slot and fewer than ``n`` nodes were informed before
    it.
    """

    rule = "slot-budget"

    def __init__(self, *, constant: float = 8.0, budget: int | None = None) -> None:
        super().__init__()
        self.constant = constant
        self._configured_budget = budget
        self.budget: int | None = budget

    def start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Compute the Theorem 4 budget for this run's ``(n, c, k)``."""
        super().start(num_nodes=num_nodes, num_channels=num_channels, overlap=overlap)
        if self._configured_budget is not None:
            self.budget = self._configured_budget
        else:
            from repro.analysis.theory import cogcast_slot_bound

            self.budget = cogcast_slot_bound(
                num_nodes, num_channels, overlap, constant=self.constant
            )

    def finish(self, slots: int, protocols: Sequence[Any], network: "Network") -> None:
        """Alarm if the budget slot ran with a node still uninformed."""
        budget = self.budget
        if budget is None or slots <= budget:
            return
        nodes = len(protocols)
        informed_slots = [_informed_slot(protocol) for protocol in protocols]
        informed = sum(
            1 for slot in informed_slots if slot is not None and slot < budget
        )
        if informed < nodes:
            self.alarm(
                budget,
                f"{nodes - informed} of {nodes} nodes uninformed at slot "
                f"{budget} (budget {budget})",
                informed=informed,
                nodes=nodes,
                budget=budget,
            )


class MediatorUniquenessWatchdog(WatchdogProbe):
    """COGCOMP invariant: at most one mediator announces per channel.

    Phase two elects exactly one mediator per used channel (the minimum
    id in the last-informed cluster); every winning
    ``MediatorAnnounce`` therefore comes from the same sender on any
    given channel.  A second distinct announcer raises one anomaly per
    offending channel.  Final state cannot see a forged announce, so
    this watchdog is an event sink: it checks each event in
    :meth:`record`.
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
    """COGCOMP invariant: each member's census count is its cluster's size.

    An (r, c)-cluster is the nodes first informed in slot ``r`` on
    channel ``c`` (Definition 6).  One informer broadcasts on one
    channel per slot, so the nodes sharing an ``(informed_slot,
    parent)`` pair are one cluster, and each member's phase-two
    ``cluster_size`` (what phase three reports, Lemmas 7 and 9) must
    equal the group's size.  One anomaly per disagreeing cluster, at
    its informed slot.
    """

    rule = "cluster-size"

    def finish(self, slots: int, protocols: Sequence[Any], network: "Network") -> None:
        """Group the census members by cluster; alarm on a miscount."""
        clusters: dict[tuple[Slot, NodeId], list[NodeId]] = {}
        for node, protocol in enumerate(protocols):
            if getattr(protocol, "cluster_size", None) is not None:
                key = (protocol.informed_slot, protocol.parent)
                clusters.setdefault(key, []).append(node)
        for (slot, _), members in sorted(clusters.items()):
            census = len(members)
            sizes = [protocols[node].cluster_size for node in members]
            reported = next((size for size in sizes if size != census), census)
            if reported == census:
                continue
            first = members[0]
            channel = network.physical(slot, first, protocols[first].informed_label)
            self.alarm(
                slot,
                f"cluster (channel {channel}, informed slot {slot}) reported "
                f"size {reported}, census saw {census}",
                channel=channel,
                cluster_slot=slot,
                reported=reported,
                census=census,
            )


class InformedSetWatchdog(WatchdogProbe):
    """COGCAST invariant: Lemma 5's distribution tree is consistent.

    For every informed node ``u`` with parent ``p``: ``p`` was informed
    strictly before ``u`` (the source at slot -1), and ``u``'s channel
    in its informed slot is one ``p`` holds in that slot.  A failure
    means a node broadcast the message without having it, or protocol
    state went wrong.  One anomaly per offending parent, at the slot it
    informed its first offending child.
    """

    rule = "informed-set"

    def finish(self, slots: int, protocols: Sequence[Any], network: "Network") -> None:
        """Check every parent-child edge of the final distribution tree."""
        informed = [_informed_slot(protocol) for protocol in protocols]
        children = sorted(
            (slot, child)
            for child, slot in enumerate(informed)
            if slot is not None and protocols[child].parent is not None
        )
        for slot, child in children:
            parent = protocols[child].parent
            channel = network.physical(slot, child, protocols[child].informed_label)
            parent_slot = informed[parent]
            if parent_slot is None or parent_slot >= slot:
                problem = "without having been informed"
            elif channel not in network.assignment_at(slot).channels[parent]:
                problem = f"on channel {channel}, which it does not hold"
            else:
                continue
            self.alarm(
                slot,
                f"node {parent} informed node {child} at slot {slot} {problem}",
                key=parent,
                node=parent,
                channel=channel,
                child=child,
            )


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
