"""Causal spans: distribution trees and phase spans from engine ground truth.

The run totals a metrics registry counts
(:func:`repro.obs.metrics.count_run`) answer *how much*; this module
answers *why* and *in what order*.  A
:class:`SpanProbe` is a streaming event sink: it folds the engine's
:class:`~repro.sim.trace.ChannelEvent` stream as it arrives, keeping no
events, and reconstructs the run's causal structure:

- the epidemic **distribution tree** of COGCAST — who informed whom, on
  which physical channel, at which slot — as a
  :class:`~repro.core.tree.DistributionTree` plus each node's
  :class:`~repro.core.tree.InformEdge`, read by the trace oracles' rule
  (:func:`~repro.core.tree.first_informs`);
- **phase spans** for COGCOMP's four globally-timed phases, plus one
  span per phase-four cluster-aggregation conversation, each carrying
  slot extents, contention statistics, and parent/child causal links.

Spans export to Chrome-trace / Perfetto JSON via
:mod:`repro.obs.export` and compact summaries embed into telemetry run
records (:func:`repro.obs.telemetry.run_record` ``spans=``).

Who informed whom comes from :mod:`repro.core.tree`, the analysis-side
home of Lemma 5's rule, so this module loads it and
:mod:`repro.core.messages` but no protocol module.  Every other payload
is classified structurally (:func:`payload_kind`) rather than by
message class; lint rule R4 keeps the other direction clean, protocol
code never imports :mod:`repro.obs`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.tree import DistributionTree, InformEdge, first_informs
from repro.obs.aggregators import StreamingStat
from repro.sim.trace import ChannelEvent
from repro.types import Channel, NodeId, Slot

#: Payload kinds recognized by :func:`payload_kind`, in protocol order.
PAYLOAD_KINDS = ("init", "census", "cluster-size", "announce", "report", "ack")


def payload_kind(payload: Any) -> str | None:
    """Classify a protocol payload by its field shape.

    Returns one of :data:`PAYLOAD_KINDS` or ``None`` for payloads this
    layer does not recognize.  Classification is structural (attribute
    names) so the span layer never imports protocol message classes:

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


class SpanProbe:
    """Reconstructs a run's causal structure from its channel events.

    A streaming event sink: :meth:`start` resets it for a run,
    :meth:`record` folds each channel event as it arrives (keeping
    none), and :meth:`finish` closes the run.  A runner given ``spans=``
    makes all three calls; elsewhere, attach it as an engine's
    ``trace`` and call :meth:`start` and :meth:`finish` around the run.
    After the run:

    - :attr:`tree` is the COGCAST distribution tree
      (:class:`~repro.core.tree.DistributionTree`) over the nodes the
      run reached, rooted at the sender of the first winning init
      broadcast (provably the source: only informed nodes send init,
      and at slot 0 only the source is informed), and :attr:`edges`
      keeps each informed node's :class:`~repro.core.tree.InformEdge`;
    - :meth:`spans` returns the phase / cluster spans (COGCOMP phase
      spans need the phase-one length, which
      :func:`repro.core.runners.run_data_aggregation` passes to
      :meth:`start` on every run);
    - :meth:`summary` is the compact JSON form embedded into telemetry
      run records, and :mod:`repro.obs.export` renders the full
      Chrome-trace timeline.
    """

    def __init__(self) -> None:
        self.start(num_nodes=0)

    def start(self, *, num_nodes: int, phase1_slots: int | None = None) -> None:
        """Reset for a run on *num_nodes* nodes.

        *phase1_slots* is COGCOMP's phase-one length ``l``; it enables
        the four phase spans for this run only.
        """
        self.phase1_slots = phase1_slots
        self._num_nodes = num_nodes
        self._source: NodeId | None = None
        self._slots = 0
        self._edges: dict[NodeId, InformEdge] = {}
        self._informed: set[NodeId] = set()
        self._phases: dict[str, _PhaseStats] = {}
        self._clusters: dict[tuple[Channel, Slot], _ClusterStats] = {}
        self._announced: dict[Channel, Slot] = {}
        self._first_active: dict[NodeId, Slot] = {}
        self._last_active: dict[NodeId, Slot] = {}

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

    def record(self, event: ChannelEvent) -> None:
        """Fold one channel event into extents, tree edges, phases, clusters."""
        slot = event.slot
        # Every node that acted this slot is a broadcaster or listener
        # of exactly one event, jammed or not.
        first, last = self._first_active, self._last_active
        for nodes in (event.broadcasters, event.listeners):
            for node in nodes:
                if node not in first:
                    first[node] = slot
                last[node] = slot
        name = self._phase_of(slot)
        phase = self._phases.get(name)
        if phase is None:
            phase = self._phases[name] = _PhaseStats()
        phase.events += 1
        contenders = len(event.broadcasters)
        if contenders:
            phase.contention.push(contenders)
        winner = event.winner
        if winner is None:
            return
        phase.successes += 1
        kind = payload_kind(winner.payload)
        if kind == "init" and self._source is None:
            self._source = winner.sender
            self._informed.add(winner.sender)
        for edge in first_informs(event, self._informed):
            self._edges[edge.child] = edge
            phase.informs += 1
        if kind == "announce":
            cluster_slot = winner.payload.cluster_slot
            self._announced[event.channel] = cluster_slot
            cluster = self._cluster(event.channel, cluster_slot, slot)
            cluster.announces += 1
        elif kind == "report":
            cluster = self._cluster(event.channel, winner.payload.cluster_slot, slot)
            cluster.reports += 1
        elif kind == "ack":
            cluster_slot = self._announced.get(event.channel)
            if cluster_slot is not None:
                cluster = self._cluster(event.channel, cluster_slot, slot)
                cluster.acks += 1

    def finish(self, slots: int) -> None:
        """Record the run length (from slot 0) for the root span."""
        self._slots = slots

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

    @property
    def source(self) -> NodeId | None:
        """The inferred broadcast source (``None`` before any init)."""
        return self._source

    @property
    def informed(self) -> frozenset[NodeId]:
        """Nodes observed informed (the source plus every inform edge)."""
        return frozenset(self._informed)

    @property
    def edges(self) -> dict[NodeId, InformEdge]:
        """Each informed node's inform edge (who, in which slot, on which channel)."""
        return dict(self._edges)

    @property
    def tree(self) -> DistributionTree:
        """The distribution tree over the nodes the run reached.

        It has the *num_nodes* given to :meth:`start`; ``parents[u]`` is
        ``None`` for the source and for every node no chain of inform
        edges reaches from it.  Raises :class:`ValueError` when no init
        traffic was observed (there is no tree to root).
        """
        if self._source is None:
            raise ValueError("no init broadcast observed")
        parents: list[NodeId | None] = [None] * self._num_nodes
        for child, edge in self._edges.items():
            parents[child] = edge.parent
        return DistributionTree(self._source, tuple(parents))

    def critical_path(self) -> tuple[InformEdge, ...]:
        """The root path to the last-informed node (ties: smallest id).

        The length of this chain is the sequential depth of the epidemic
        — the part of the completion time no parallelism can hide.
        Raises :class:`~repro.core.tree.TreeError` when the tree does
        not reach that node.
        """
        edges = self._edges
        if not edges:
            return ()
        node = min(edges, key=lambda child: (-edges[child].slot, child))
        path: list[InformEdge] = []
        for _ in range(self.tree.depth(node)):
            path.append(edges[node])
            node = edges[node].parent
        return tuple(reversed(path))

    def node_extents(self) -> dict[NodeId, tuple[Slot, Slot]]:
        """Per-node ``(first, last)`` non-idle slots, by node id."""
        first, last = self._first_active, self._last_active
        return {node: (first[node], last[node]) for node in sorted(first)}

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
            summary["tree"] = self._tree_stats()
        return summary

    def _tree_stats(self) -> dict[str, Any]:
        """Size, height, timing and fan-out of :attr:`tree` (JSON-ready)."""
        tree, edges = self.tree, self._edges.values()
        nodes = tree.nodes
        fanout = Counter(edge.parent for edge in edges)
        informers = [fanout[node] for node in sorted(nodes) if fanout[node]]
        mean_fanout = sum(informers) / len(informers) if informers else 0.0
        last = max((edge.slot for edge in edges), default=None)
        return {
            "nodes": len(nodes),
            "edges": len(edges),
            "max_depth": tree.height(),
            "critical_path_slots": 0 if last is None else last + 1,
            "last_informed_slot": last,
            "max_fanout": max(informers, default=0),
            "mean_fanout": round(mean_fanout, 4),
        }
