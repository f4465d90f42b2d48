"""(r, c)-clusters: the unit of coordination in COGCOMP (Definitions 6 and 8).

An *(r, c)-cluster* is the set of nodes first informed in slot ``r`` on
channel ``c`` during phase one; the *(r, c)-informer* is the (unique)
node whose broadcast informed them.  Every non-source node belongs to
exactly one cluster; a node can be the informer of many clusters.

This module provides the analysis-side reconstruction of clusters from
an event trace (ground truth for tests), and small value types shared by
the COGCOMP implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.tree import first_informs
from repro.sim.trace import EventTrace
from repro.types import Channel, NodeId, Slot


@dataclass(frozen=True, slots=True)
class ClusterKey:
    """Identifies a cluster by informing slot and *physical* channel.

    Per the paper's footnote 5, the channel inside the tuple is "from a
    global oracle's perspective"; node-side bookkeeping only ever uses
    the informing slot plus the node's own local label for the channel,
    which is equivalent because cluster members were, by construction,
    tuned to the same physical channel in that slot.
    """

    slot: Slot
    channel: Channel


@dataclass(frozen=True, slots=True)
class ClusterInfo:
    """Ground-truth facts about one cluster."""

    key: ClusterKey
    informer: NodeId
    members: frozenset[NodeId]

    @property
    def size(self) -> int:
        return len(self.members)


def clusters_from_trace(trace: EventTrace, root: NodeId) -> dict[ClusterKey, ClusterInfo]:
    """Reconstruct all (r, c)-clusters from an engine trace.

    A cluster forms whenever an ``InitPayload`` wins a channel that has
    at least one not-yet-informed, unjammed listener
    (:func:`~repro.core.tree.first_informs`).  Listeners already
    informed earlier (impossible under pure COGCAST, where informed
    nodes never listen, but possible under protocol variants) are
    excluded, matching the "first informed" definition.
    """
    informed: set[NodeId] = {root}
    clusters: dict[ClusterKey, ClusterInfo] = {}
    for event in trace.events:
        edges = first_informs(event, informed)
        if not edges:
            continue
        key = ClusterKey(slot=event.slot, channel=event.channel)
        clusters[key] = ClusterInfo(
            key=key,
            informer=edges[0].parent,
            members=frozenset(edge.child for edge in edges),
        )
    return clusters


def cluster_of(clusters: Mapping[ClusterKey, ClusterInfo], node: NodeId) -> ClusterInfo | None:
    """Find the unique cluster containing *node*, if any."""
    for info in clusters.values():
        if node in info.members:
            return info
    return None


def largest_cluster_per_slot(
    clusters: Mapping[ClusterKey, ClusterInfo],
) -> dict[Slot, int]:
    """``k_i`` from Theorem 10's proof: per informing slot, the largest
    cluster size.  The theorem bounds phase four by ``O(sum_i k_i) <= O(n)``."""
    largest: dict[Slot, int] = {}
    for info in clusters.values():
        slot = info.key.slot
        largest[slot] = max(largest.get(slot, 0), info.size)
    return largest
