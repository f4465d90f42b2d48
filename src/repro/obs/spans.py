"""Causal spans: distribution trees and phase spans from engine ground truth.

The streaming counter (:class:`repro.obs.metrics.MetricsProbe`)
answers *how much*; this module answers *why* and *in what order*.  A
:class:`SpanProbe` watches the same :class:`~repro.sim.trace.ChannelEvent`
stream and reconstructs the run's causal structure:

- the epidemic **distribution tree** of COGCAST — who informed whom, on
  which physical channel, at which slot — as a queryable
  :class:`SpanTree` with depth / fanout / critical-path statistics;
- **phase spans** for COGCOMP's four globally-timed phases, plus one
  span per phase-four cluster-aggregation conversation, each carrying
  slot extents, contention statistics, and parent/child causal links.

Spans export to Chrome-trace / Perfetto JSON via
:mod:`repro.obs.export` and compact summaries embed into telemetry run
records (:func:`repro.obs.telemetry.run_record` ``spans=``).

Message payloads are classified structurally (:func:`payload_kind`)
rather than by importing :mod:`repro.core.messages` — the probe layer
stays import-independent of protocol code, mirroring how lint rule R4
keeps protocol code import-independent of the probe layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.obs.aggregators import StreamingStat
from repro.obs.probe import ProtocolProbe
from repro.sim.actions import Idle
from repro.sim.trace import ChannelEvent
from repro.types import Channel, NodeId, Slot

#: Payload kinds recognized by :func:`payload_kind`, in protocol order.
PAYLOAD_KINDS = ("init", "census", "cluster-size", "announce", "report", "ack")


def payload_kind(payload: Any) -> str | None:
    """Classify a protocol payload by its field shape.

    Returns one of :data:`PAYLOAD_KINDS` or ``None`` for payloads this
    layer does not recognize.  Classification is structural (attribute
    names) so the probe layer never imports protocol message classes:

    - ``origin`` → ``"init"`` (COGCAST / phase-one broadcast);
    - ``node`` + ``informed_slot`` → ``"census"`` (phase two);
    - ``informed_slot`` + ``size`` → ``"cluster-size"`` (phase three);
    - ``cluster_slot`` + ``value`` → ``"report"`` (phase four);
    - ``cluster_slot`` → ``"announce"`` (phase four);
    - ``node`` → ``"ack"`` (phase four).
    """
    if payload is None:
        return None
    if hasattr(payload, "origin"):
        return "init"
    has_node = hasattr(payload, "node")
    if has_node and hasattr(payload, "informed_slot"):
        return "census"
    if hasattr(payload, "informed_slot") and hasattr(payload, "size"):
        return "cluster-size"
    if hasattr(payload, "cluster_slot"):
        return "report" if hasattr(payload, "value") else "announce"
    if has_node:
        return "ack"
    return None


@dataclass(frozen=True, slots=True)
class InformEdge:
    """One edge of the distribution tree: *parent* informed *child*.

    Attributes
    ----------
    parent: the node whose broadcast won the channel.
    child: the node first informed by that broadcast.
    slot: the slot in which the inform happened.
    channel: the physical channel it happened on.
    """

    parent: NodeId
    child: NodeId
    slot: Slot
    channel: Channel


class SpanTree:
    """The reconstructed COGCAST distribution tree, queryable.

    Built from engine-side ground truth: each informed node (other than
    the source) has exactly one :class:`InformEdge` recording who
    informed it, when, and on which channel.  :meth:`validate` checks
    the structural invariants the paper's epidemic process guarantees.
    """

    def __init__(self, source: NodeId, edges: Mapping[NodeId, InformEdge]) -> None:
        self.source = source
        self.edges: dict[NodeId, InformEdge] = dict(edges)

    @property
    def nodes(self) -> frozenset[NodeId]:
        """Every node in the tree (the source plus all informed nodes)."""
        return frozenset(self.edges) | {self.source}

    def __len__(self) -> int:
        """Number of nodes in the tree."""
        return len(self.nodes)

    def __iter__(self) -> Iterator[InformEdge]:
        """Iterate edges in informing order (slot, then child id)."""
        return iter(sorted(self.edges.values(), key=lambda e: (e.slot, e.child)))

    def parent_of(self, node: NodeId) -> NodeId | None:
        """The node that informed *node* (``None`` for the source)."""
        if node == self.source:
            return None
        return self.edges[node].parent

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """The nodes *node* directly informed, in ascending id order."""
        return tuple(
            sorted(child for child, edge in self.edges.items() if edge.parent == node)
        )

    def fanout(self, node: NodeId) -> int:
        """How many nodes *node* directly informed."""
        return len(self.children(node))

    def depth(self, node: NodeId) -> int:
        """Edges between the source and *node* (source depth is 0)."""
        return len(self.path_to(node))

    def path_to(self, node: NodeId) -> tuple[InformEdge, ...]:
        """The inform edges from the source down to *node*, in order."""
        path: list[InformEdge] = []
        current = node
        seen = {node}
        while current != self.source:
            edge = self.edges.get(current)
            if edge is None:
                raise KeyError(f"node {current} is not in the tree")
            path.append(edge)
            current = edge.parent
            if current in seen:
                raise ValueError(f"cycle through node {current}")
            seen.add(current)
        return tuple(reversed(path))

    def critical_path(self) -> tuple[InformEdge, ...]:
        """The root path to the last-informed node (ties: smallest id).

        The length of this chain is the sequential depth of the epidemic
        — the part of the completion time no parallelism can hide.
        """
        if not self.edges:
            return ()
        last = min(
            self.edges,
            key=lambda child: (-self.edges[child].slot, child),
        )
        return self.path_to(last)

    def validate(self) -> list[str]:
        """Check the structural invariants; return the problems found.

        An empty list means: every edge's parent is in the tree, every
        node is reachable from the source (no cycles or orphan chains),
        no edge re-informs the source, and slots strictly increase along
        every root path.
        """
        problems: list[str] = []
        if self.source in self.edges:
            problems.append(f"source {self.source} has an inform edge")
        nodes = self.nodes
        for child in sorted(self.edges):
            edge = self.edges[child]
            if edge.child != child:
                problems.append(f"edge for {child} names child {edge.child}")
            if edge.parent not in nodes:
                problems.append(f"edge parent {edge.parent} is not in the tree")
        # Reachability + slot monotonicity by breadth-first walk.
        reached = {self.source}
        frontier = [self.source]
        while frontier:
            node = frontier.pop()
            for child in self.children(node):
                if child in reached:
                    continue
                reached.add(child)
                frontier.append(child)
                edge = self.edges[child]
                if node != self.source:
                    parent_slot = self.edges[node].slot
                    if edge.slot <= parent_slot:
                        problems.append(
                            f"edge {node}->{child} at slot {edge.slot} does not "
                            f"follow parent inform at slot {parent_slot}"
                        )
        unreachable = nodes - reached
        if unreachable:
            problems.append(
                "unreachable from source: " + ", ".join(map(str, sorted(unreachable)))
            )
        return problems

    def stats(self) -> dict[str, Any]:
        """Aggregate tree statistics (JSON-ready)."""
        if not self.edges:
            return {
                "nodes": 1,
                "edges": 0,
                "max_depth": 0,
                "critical_path_slots": 0,
                "last_informed_slot": None,
                "max_fanout": 0,
                "mean_fanout": 0.0,
            }
        critical = self.critical_path()
        fanouts = [self.fanout(node) for node in sorted(self.nodes)]
        informers = [fanout for fanout in fanouts if fanout > 0]
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "max_depth": len(critical),
            "critical_path_slots": critical[-1].slot + 1,
            "last_informed_slot": max(edge.slot for edge in self.edges.values()),
            "max_fanout": max(fanouts),
            "mean_fanout": round(sum(informers) / len(informers), 4),
        }


@dataclass
class Span:
    """One named interval of a run, with causal links and attributes.

    Slot extents are half-open: the span covers ``[start, end)``.
    ``parent`` names the enclosing span (``None`` for the root), so a
    span list forms a forest renderable as a trace timeline.
    """

    name: str
    kind: str
    start: Slot
    end: Slot
    parent: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        """Slots covered by the span."""
        return max(0, self.end - self.start)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form of the span."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }


class _PhaseStats:
    """Per-phase streaming aggregates folded from channel events."""

    def __init__(self) -> None:
        self.events = 0
        self.successes = 0
        self.informs = 0
        self.contention = StreamingStat()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of the phase's activity."""
        return {
            "events": self.events,
            "successes": self.successes,
            "informs": self.informs,
            "contention": self.contention.as_dict(),
        }


class _ClusterStats:
    """Extent and message tallies of one phase-four cluster conversation."""

    def __init__(self, channel: Channel, cluster_slot: Slot, start: Slot) -> None:
        self.channel = channel
        self.cluster_slot = cluster_slot
        self.start = start
        self.end = start + 1
        self.announces = 0
        self.reports = 0
        self.acks = 0

    def extend(self, slot: Slot) -> None:
        self.end = max(self.end, slot + 1)


class SpanProbe(ProtocolProbe):
    """Reconstructs a run's causal structure from the channel-event stream.

    Attach like any probe (engine ``probe=`` or the runner ``spans=``
    kwargs).  After the run:

    - :attr:`tree` is the COGCAST distribution tree (:class:`SpanTree`);
    - :meth:`spans` returns the phase / cluster spans (COGCOMP needs the
      phase-one length — pass ``phase1_slots`` or let
      :func:`repro.core.runners.run_data_aggregation` call
      :meth:`set_timetable`);
    - :meth:`summary` is the compact JSON form embedded into telemetry
      run records, and :mod:`repro.obs.export` renders the full
      Chrome-trace timeline.

    Parameters
    ----------
    source:
        The broadcast source, when known.  Otherwise inferred as the
        sender of the first successful init broadcast (provably the
        source: only informed nodes send init, and at slot 0 only the
        source is informed).
    phase1_slots:
        COGCOMP's phase-one length ``l``; enables the four phase spans.
    """

    def __init__(
        self, *, source: NodeId | None = None, phase1_slots: int | None = None
    ) -> None:
        self._configured_source = source
        self.phase1_slots = phase1_slots
        self._reset()

    def _reset(self) -> None:
        self._source: NodeId | None = self._configured_source
        self._num_nodes = 0
        self._slots = 0
        self._edges: dict[NodeId, InformEdge] = {}
        self._informed: set[NodeId] = set()
        self._phases: dict[str, _PhaseStats] = {}
        self._clusters: dict[tuple[Channel, Slot], _ClusterStats] = {}
        self._announced: dict[Channel, Slot] = {}
        self._extents: dict[NodeId, tuple[Slot, Slot]] = {}

    def set_timetable(self, phase1_slots: int) -> None:
        """Declare COGCOMP's phase-one length ``l`` (idempotent).

        Runners call this before the run so phase spans use the exact
        timetable the protocol was constructed with; an explicitly
        configured value wins.
        """
        if self.phase1_slots is None:
            self.phase1_slots = phase1_slots

    def on_run_start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Reset per-run state; remember the network size."""
        self._reset()
        self._num_nodes = num_nodes

    def _phase_of(self, slot: Slot) -> str:
        """The timetable phase containing *slot* (``"run"`` untimed)."""
        l = self.phase1_slots
        if l is None:
            return "run"
        if slot < l:
            return "phase1"
        if slot < l + self._num_nodes:
            return "phase2"
        if slot < 2 * l + self._num_nodes:
            return "phase3"
        return "phase4"

    def on_channel_event(self, event: ChannelEvent) -> None:
        """Fold one channel event into tree edges, phases, and clusters."""
        phase = self._phases.setdefault(self._phase_of(event.slot), _PhaseStats())
        phase.events += 1
        contenders = len(event.broadcasters)
        if contenders:
            phase.contention.push(contenders)
        winner = event.winner
        if winner is None:
            return
        phase.successes += 1
        kind = payload_kind(winner.payload)
        if kind == "init":
            sender = winner.sender
            if self._source is None:
                self._source = sender
            self._informed.add(sender)
            for node in event.listeners:
                if (
                    node in event.jammed_nodes
                    or node in self._informed
                    or node == self._source
                ):
                    continue
                self._informed.add(node)
                self._edges[node] = InformEdge(
                    parent=sender, child=node, slot=event.slot, channel=event.channel
                )
                phase.informs += 1
        elif kind == "announce":
            cluster_slot = winner.payload.cluster_slot
            self._announced[event.channel] = cluster_slot
            cluster = self._cluster(event.channel, cluster_slot, event.slot)
            cluster.announces += 1
        elif kind == "report":
            cluster = self._cluster(
                event.channel, winner.payload.cluster_slot, event.slot
            )
            cluster.reports += 1
        elif kind == "ack":
            cluster_slot = self._announced.get(event.channel)
            if cluster_slot is not None:
                cluster = self._cluster(event.channel, cluster_slot, event.slot)
                cluster.acks += 1

    def _cluster(
        self, channel: Channel, cluster_slot: Slot, slot: Slot
    ) -> _ClusterStats:
        key = (channel, cluster_slot)
        cluster = self._clusters.get(key)
        if cluster is None:
            cluster = _ClusterStats(channel, cluster_slot, slot)
            self._clusters[key] = cluster
        else:
            cluster.extend(slot)
        return cluster

    def on_action(self, slot: Slot, node: NodeId, action: Any) -> None:
        """Track each node's first/last non-idle slot."""
        if isinstance(action, Idle):
            return
        extent = self._extents.get(node)
        if extent is None:
            self._extents[node] = (slot, slot)
        else:
            self._extents[node] = (extent[0], slot)

    def on_run_end(self, slots: int) -> None:
        """Record the run length for the root span."""
        self._slots = slots

    @property
    def source(self) -> NodeId | None:
        """The configured or inferred broadcast source."""
        return self._source

    @property
    def informed(self) -> frozenset[NodeId]:
        """Nodes observed informed (the source plus every inform edge)."""
        return frozenset(self._informed)

    @property
    def tree(self) -> SpanTree:
        """The reconstructed distribution tree.

        Raises :class:`ValueError` when no init traffic was observed and
        no source was configured (there is no tree to root).
        """
        if self._source is None:
            raise ValueError("no init broadcast observed and no source configured")
        return SpanTree(self._source, self._edges)

    def node_extents(self) -> dict[NodeId, tuple[Slot, Slot]]:
        """Per-node ``(first, last)`` non-idle slots, by node id."""
        return {node: self._extents[node] for node in sorted(self._extents)}

    def spans(self) -> list[Span]:
        """The run's span forest: root, phases, and cluster conversations.

        Phase spans appear only when the timetable is known
        (:attr:`phase1_slots`); their extents are the protocol's exact
        ``phase2_start`` / ``phase3_start`` / ``phase4_start`` boundaries,
        not clamped to observed activity.
        """
        spans = [Span(name="run", kind="run", start=0, end=self._slots)]
        l = self.phase1_slots
        if l is not None:
            n = self._num_nodes
            boundaries = (
                ("phase1", 0, l),
                ("phase2", l, l + n),
                ("phase3", l + n, 2 * l + n),
                ("phase4", 2 * l + n, max(2 * l + n, self._slots)),
            )
            for name, start, end in boundaries:
                stats = self._phases.get(name)
                spans.append(
                    Span(
                        name=name,
                        kind="phase",
                        start=start,
                        end=end,
                        parent="run",
                        attrs=stats.as_dict() if stats else _PhaseStats().as_dict(),
                    )
                )
        else:
            stats = self._phases.get("run")
            if stats is not None:
                spans[0].attrs = stats.as_dict()
        cluster_parent = "phase4" if l is not None else "run"
        for key in sorted(self._clusters):
            cluster = self._clusters[key]
            spans.append(
                Span(
                    name=f"cluster ch{cluster.channel} slot{cluster.cluster_slot}",
                    kind="cluster",
                    start=cluster.start,
                    end=cluster.end,
                    parent=cluster_parent,
                    attrs={
                        "channel": cluster.channel,
                        "cluster_slot": cluster.cluster_slot,
                        "announces": cluster.announces,
                        "reports": cluster.reports,
                        "acks": cluster.acks,
                    },
                )
            )
        return spans

    def summary(self) -> dict[str, Any]:
        """Compact JSON span summary (telemetry ``spans`` field).

        ``extents`` maps the run span and each phase span (when the
        timetable is known) to its ``[start, end)`` slot interval, so a
        consumer of the compact summary — e.g. ``repro obs explain``
        joining an anomaly slot back to its enclosing span — can
        recover the span path without the full span forest.
        """
        summary: dict[str, Any] = {
            "slots": self._slots,
            "source": self._source,
            "informed": len(self._informed),
            "phases": {
                name: self._phases[name].as_dict() for name in sorted(self._phases)
            },
            "clusters": len(self._clusters),
            "extents": {
                span.name: [span.start, span.end]
                for span in self.spans()
                if span.kind in ("run", "phase")
            },
        }
        if self._source is not None:
            summary["tree"] = self.tree.stats()
        return summary
