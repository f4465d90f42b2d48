"""The distribution tree COGCAST implicitly constructs (Lemma 5).

Each node designates as its parent the node from which it first received
the message; since an informed node never listens again, each node is
informed exactly once, so the parent pointers form a tree rooted at the
source.  COGCOMP aggregates along this tree.

:func:`first_informs` reads that rule off one channel event; every
analysis that asks who informed whom (:meth:`DistributionTree.from_trace`,
:func:`~repro.core.clusters.clusters_from_trace`,
:func:`~repro.sim.metrics.informed_curve` and the streaming
:class:`~repro.obs.spans.SpanProbe`) folds events through it.

:class:`DistributionTree` is the analysis-side representation, built
either from protocol state (what nodes *believe*) or from an event trace
(what *physically happened*); tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.messages import InitPayload
from repro.sim.trace import ChannelEvent, EventTrace
from repro.types import Channel, NodeId, ReproError, Slot


class TreeError(ReproError):
    """The parent pointers do not form a valid distribution tree."""


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


def first_informs(event: ChannelEvent, informed: set[NodeId]) -> list[InformEdge]:
    """The nodes *event* informs first, as edges; each joins *informed*.

    *informed* starts as the source.  An
    :class:`~repro.core.messages.InitPayload` winner informs every
    unjammed listener not yet in it; any other event informs nobody.
    """
    winner = event.winner
    if winner is None or not isinstance(winner.payload, InitPayload):
        return []
    edges = [
        InformEdge(winner.sender, listener, event.slot, event.channel)
        for listener in event.listeners
        if listener not in informed and listener not in event.jammed_nodes
    ]
    informed.update(edge.child for edge in edges)
    return edges


@dataclass(frozen=True)
class DistributionTree:
    """A rooted tree over node ids, stored as parent pointers.

    ``parents[u]`` is ``None`` for the root and for every node the tree
    does not reach; :attr:`nodes` are the ones it does.
    :meth:`from_parents` and :meth:`from_trace` accept only spanning
    trees; :attr:`repro.obs.spans.SpanProbe.tree` is one over the nodes
    a run reached.
    """

    root: NodeId
    parents: tuple[Optional[NodeId], ...]

    @classmethod
    def from_parents(
        cls, root: NodeId, parents: Sequence[Optional[NodeId]]
    ) -> "DistributionTree":
        """Build and validate a tree from parent pointers.

        Raises :class:`TreeError` when the pointers are not a spanning
        tree rooted at *root* (missing parents, cycles, wrong root).
        """
        tree = cls(root=root, parents=tuple(parents))
        tree.validate()
        return tree

    @classmethod
    def from_trace(cls, trace: EventTrace, root: NodeId, num_nodes: int) -> "DistributionTree":
        """Reconstruct the tree from engine ground truth.

        A node's parent is the sender of the first
        :class:`~repro.core.messages.InitPayload` it received as a
        listener.  This is the oracle's view, independent of protocol
        bookkeeping.
        """
        parents: list[Optional[NodeId]] = [None] * num_nodes
        informed: set[NodeId] = {root}
        for event in trace.events:
            for edge in first_informs(event, informed):
                parents[edge.child] = edge.parent
        return cls.from_parents(root, parents)

    @property
    def num_nodes(self) -> int:
        return len(self.parents)

    @property
    def nodes(self) -> frozenset[NodeId]:
        """The root plus every node whose parent chain reaches it."""
        return frozenset(self._depths())

    def validate(self) -> None:
        """Check the spanning-tree invariants; raise :class:`TreeError`."""
        if not 0 <= self.root < self.num_nodes:
            raise TreeError(f"root {self.root} out of range")
        if self.parents[self.root] is not None:
            raise TreeError("root must have no parent")
        for node, parent in enumerate(self.parents):
            if node == self.root:
                continue
            if parent is None:
                raise TreeError(f"node {node} has no parent (tree not spanning)")
            if not 0 <= parent < self.num_nodes:
                raise TreeError(f"node {node} has out-of-range parent {parent}")
        # Every node must reach the root without revisiting a node.
        for node in range(self.num_nodes):
            current: Optional[NodeId] = node
            visited: set[NodeId] = set()
            while current is not None and current != self.root:
                if current in visited:
                    raise TreeError(f"cycle detected through node {current}")
                visited.add(current)
                current = self.parents[current]
            if current is None:
                raise TreeError(f"node {node} does not reach the root")

    def children(self, node: NodeId) -> list[NodeId]:
        """Direct children of *node* (nodes it first informed)."""
        return [child for child, parent in enumerate(self.parents) if parent == node]

    def depth(self, node: NodeId) -> int:
        """Edges on the path from *node* to the root.

        Raises :class:`TreeError` when the tree does not reach *node*.
        """
        depth = 0
        current: Optional[NodeId] = node
        while current != self.root:
            if current is None or depth == self.num_nodes:
                raise TreeError(f"node {node} is not reached from root {self.root}")
            current = self.parents[current]
            depth += 1
        return depth

    def height(self) -> int:
        """Maximum depth over :attr:`nodes`."""
        return max(self._depths().values())

    def _depths(self) -> dict[NodeId, int]:
        """Depth of every node the tree reaches, walking down from the root."""
        children = self._children_map()
        depths = {self.root: 0}
        frontier = [self.root]
        for node in frontier:
            for child in children.get(node, ()):
                if child not in depths:
                    depths[child] = depths[node] + 1
                    frontier.append(child)
        return depths

    def subtree_size(self, node: NodeId) -> int:
        """Number of nodes in *node*'s subtree (including itself)."""
        children_of: Mapping[NodeId, list[NodeId]] = self._children_map()
        size = 0
        stack = [node]
        while stack:
            current = stack.pop()
            size += 1
            stack.extend(children_of.get(current, ()))
        return size

    def _children_map(self) -> dict[NodeId, list[NodeId]]:
        children: dict[NodeId, list[NodeId]] = {}
        for child, parent in enumerate(self.parents):
            if parent is not None:
                children.setdefault(parent, []).append(child)
        return children

    def edges(self) -> Iterable[tuple[NodeId, NodeId]]:
        """Yield (parent, child) pairs."""
        for child, parent in enumerate(self.parents):
            if parent is not None:
                yield (parent, child)

    def degree_histogram(self) -> dict[int, int]:
        """Histogram of out-degrees (number of children) over all nodes."""
        children = self._children_map()
        histogram: dict[int, int] = {}
        for node in range(self.num_nodes):
            degree = len(children.get(node, ()))
            histogram[degree] = histogram.get(degree, 0) + 1
        return histogram

    def render_ascii(self, *, max_depth: int | None = None) -> str:
        """Pretty-print the tree with box-drawing connectors.

        Children print in ascending id order.  ``max_depth`` truncates
        deep subtrees (an ellipsis row marks the cut).
        """
        children = self._children_map()
        lines = [str(self.root)]

        def walk(node: NodeId, prefix: str, depth: int) -> None:
            kids = sorted(children.get(node, ()))
            if max_depth is not None and depth >= max_depth and kids:
                lines.append(prefix + "└── …")
                return
            for index, child in enumerate(kids):
                last = index == len(kids) - 1
                connector = "└── " if last else "├── "
                lines.append(prefix + connector + str(child))
                walk(child, prefix + ("    " if last else "│   "), depth + 1)

        walk(self.root, "", 0)
        return "\n".join(lines)
