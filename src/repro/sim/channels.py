"""Channel assignments, local labels, and (possibly dynamic) networks.

The paper's model (Section 2): ``n`` nodes, a universe of ``C`` physical
channels, each node holds ``c`` of them, every pair of nodes overlaps on
at least ``k``.  Nodes address channels through **local labels**: node
``u`` refers to its channels as ``0..c-1`` in an arbitrary private
order, so the same physical channel can carry different labels at
different nodes.

This module provides:

- :class:`ChannelAssignment` — an immutable snapshot assigning each node
  an *ordered* tuple of physical channels; position ``i`` in the tuple
  **is** local label ``i``.  Ordering the tuple arbitrarily per node is
  exactly the paper's local-label model; sorting every tuple yields a
  consistent-order special case, and :meth:`ChannelAssignment.with_global_labels`
  produces the global-label model used by Theorem 16.
- :class:`AssignmentSchedule` — maps a slot to the assignment in force,
  enabling the dynamic model from the discussion section (Theorem 17).
- :class:`Network` — bundles a schedule with the model parameters and
  answers the engine's label-translation queries.
"""

from __future__ import annotations

import abc
import itertools
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.types import Channel, InvalidAssignmentError, LocalLabel, NodeId


@dataclass(frozen=True)
class ChannelAssignment:
    """An immutable channel assignment for all nodes at one instant.

    Attributes
    ----------
    channels:
        ``channels[u]`` is the ordered tuple of physical channels node
        ``u`` can tune.  The tuple order defines ``u``'s local labels:
        local label ``i`` means physical channel ``channels[u][i]``.
    overlap:
        The guaranteed minimum pairwise overlap ``k`` this assignment was
        built to satisfy (checked by :meth:`validate`).
    """

    channels: tuple[tuple[Channel, ...], ...]
    overlap: int

    @property
    def num_nodes(self) -> int:
        return len(self.channels)

    @property
    def channels_per_node(self) -> int:
        """``c`` — every node holds the same number of channels."""
        return len(self.channels[0])

    @property
    def universe(self) -> frozenset[Channel]:
        """All physical channels appearing anywhere in the assignment."""
        return frozenset(itertools.chain.from_iterable(self.channels))

    def physical(self, node: NodeId, label: LocalLabel) -> Channel:
        """Translate *node*'s local *label* to a physical channel."""
        return self.channels[node][label]

    def label_of(self, node: NodeId, channel: Channel) -> LocalLabel:
        """Translate a physical *channel* to *node*'s local label.

        Raises ``ValueError`` if the node cannot tune the channel.
        """
        try:
            return self.channels[node].index(channel)
        except ValueError:
            raise ValueError(
                f"node {node} cannot tune channel {channel}"
            ) from None

    def channel_set(self, node: NodeId) -> frozenset[Channel]:
        return frozenset(self.channels[node])

    def pairwise_overlap(self, u: NodeId, v: NodeId) -> int:
        """The number of physical channels nodes *u* and *v* share."""
        return len(self.channel_set(u) & self.channel_set(v))

    def min_pairwise_overlap(self) -> int:
        """The smallest overlap over all node pairs (O(n^2 c) scan)."""
        sets = [self.channel_set(u) for u in range(self.num_nodes)]
        return min(
            len(sets[u] & sets[v])
            for u in range(self.num_nodes)
            for v in range(u + 1, self.num_nodes)
        )

    def validate(self) -> None:
        """Check the model invariants; raise :class:`InvalidAssignmentError`.

        Invariants: at least two nodes; every node holds exactly ``c``
        distinct channels; ``1 <= k <= c``; every pair overlaps on at
        least ``k`` channels.
        """
        if self.num_nodes < 2:
            raise InvalidAssignmentError("need at least two nodes")
        c = self.channels_per_node
        if not 1 <= self.overlap <= c:
            raise InvalidAssignmentError(
                f"overlap k={self.overlap} outside 1..c={c}"
            )
        for node, chans in enumerate(self.channels):
            if len(chans) != c:
                raise InvalidAssignmentError(
                    f"node {node} has {len(chans)} channels, expected {c}"
                )
            if len(set(chans)) != len(chans):
                raise InvalidAssignmentError(f"node {node} has duplicate channels")
        actual = self.min_pairwise_overlap()
        if actual < self.overlap:
            raise InvalidAssignmentError(
                f"minimum pairwise overlap {actual} < required k={self.overlap}"
            )

    def shuffled_labels(self, rng: random.Random) -> "ChannelAssignment":
        """Return a copy with every node's local label order re-randomized.

        This is the canonical way to produce the paper's *local channel
        label* model from any generator output.
        """
        shuffled = []
        for chans in self.channels:
            order = list(chans)
            rng.shuffle(order)
            shuffled.append(tuple(order))
        return ChannelAssignment(tuple(shuffled), self.overlap)

    def with_global_labels(self) -> "ChannelAssignment":
        """Return a copy with every node's channels sorted ascending.

        Under this ordering, any two nodes that share physical channel
        ``q`` rank it consistently, which is how the *global channel
        label* model (Theorem 16) is realized: algorithms that address
        channels by sorted rank address them consistently network-wide
        whenever the channel sets coincide.
        """
        return ChannelAssignment(
            tuple(tuple(sorted(chans)) for chans in self.channels), self.overlap
        )


class AssignmentSchedule(abc.ABC):
    """Maps a slot index to the :class:`ChannelAssignment` in force.

    The paper's base model is static (one assignment for the whole
    execution); the discussion section's dynamic model allows the
    assignment to change every slot as long as each instant satisfies
    the pairwise-overlap invariant.
    """

    @abc.abstractmethod
    def at(self, slot: int) -> ChannelAssignment:
        """The assignment in force during *slot*."""

    def labels_at(self, slot: int) -> tuple[tuple[int, ...], ...]:
        """Every node's ordered channel tuple at *slot*, in one call.

        ``labels_at(slot)[node][label]`` is the physical channel node
        ``node`` reaches through local label ``label`` — the full
        label->channel table as one batch query, so columnar consumers
        (the vector backend) pay one schedule lookup per slot instead of
        ``n`` per-node ``physical`` calls.  Goes through :meth:`at`, so
        :class:`DynamicSchedule` caching (and its LRU bound) applies
        unchanged.
        """
        return self.at(slot).channels

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int: ...

    @property
    @abc.abstractmethod
    def channels_per_node(self) -> int: ...

    @property
    @abc.abstractmethod
    def overlap(self) -> int: ...


class StaticSchedule(AssignmentSchedule):
    """The base model: one fixed assignment."""

    def __init__(self, assignment: ChannelAssignment) -> None:
        self._assignment = assignment

    def at(self, slot: int) -> ChannelAssignment:
        return self._assignment

    @property
    def num_nodes(self) -> int:
        return self._assignment.num_nodes

    @property
    def channels_per_node(self) -> int:
        return self._assignment.channels_per_node

    @property
    def overlap(self) -> int:
        return self._assignment.overlap


class DynamicSchedule(AssignmentSchedule):
    """The dynamic model: a fresh assignment per slot, generated lazily.

    *generator* is called with the slot index and must return an
    assignment with the same ``(n, c, k)`` shape.  Generated assignments
    are cached so that re-querying a slot (e.g. by a trace consumer) is
    consistent.

    Parameters
    ----------
    max_cache:
        When set, the cache holds at most this many assignments and
        evicts the least recently used one as new slots are generated
        — the right choice for long runs, which otherwise leak one
        assignment per slot.  Only safe when *generator* is a pure
        function of the slot index (the contract for deterministic
        replay anyway): a generator that draws from a shared, stateful
        RNG would regenerate an evicted slot differently.  ``None``
        (the default) keeps every assignment forever.
    """

    def __init__(
        self,
        generator: Callable[[int], ChannelAssignment],
        *,
        validate_each: bool = False,
        max_cache: int | None = None,
    ) -> None:
        if max_cache is not None and max_cache < 1:
            raise ValueError("max_cache must be positive")
        self._generator = generator
        self._validate_each = validate_each
        self._max_cache = max_cache
        self._cache: OrderedDict[int, ChannelAssignment] = OrderedDict()
        first = self.at(0)
        self._num_nodes = first.num_nodes
        self._channels_per_node = first.channels_per_node
        self._overlap = first.overlap

    def at(self, slot: int) -> ChannelAssignment:
        cache = self._cache
        if slot in cache:
            cache.move_to_end(slot)
            return cache[slot]
        assignment = self._generator(slot)
        if self._validate_each:
            assignment.validate()
        cache[slot] = assignment
        if self._max_cache is not None and len(cache) > self._max_cache:
            cache.popitem(last=False)
        return assignment

    @property
    def cache_size(self) -> int:
        """Number of assignments currently held in the cache."""
        return len(self._cache)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def channels_per_node(self) -> int:
        return self._channels_per_node

    @property
    def overlap(self) -> int:
        return self._overlap


class Network:
    """The world as the engine sees it: schedule + model parameters.

    The network object is the single source of truth for translating a
    node's local label to a physical channel at a given slot, and for
    the scalar parameters ``n``, ``c``, ``k`` that protocols are allowed
    to know.
    """

    def __init__(self, schedule: AssignmentSchedule) -> None:
        self.schedule = schedule

    @classmethod
    def static(cls, assignment: ChannelAssignment, *, validate: bool = True) -> "Network":
        """Build a static network, validating the assignment by default."""
        if validate:
            assignment.validate()
        return cls(StaticSchedule(assignment))

    @property
    def num_nodes(self) -> int:
        return self.schedule.num_nodes

    @property
    def channels_per_node(self) -> int:
        return self.schedule.channels_per_node

    @property
    def overlap(self) -> int:
        return self.schedule.overlap

    def physical(self, slot: int, node: NodeId, label: LocalLabel) -> Channel:
        """Physical channel behind *node*'s *label* during *slot*."""
        if not 0 <= label < self.channels_per_node:
            from repro.types import ProtocolViolationError

            raise ProtocolViolationError(
                f"node {node} used local label {label}; "
                f"valid labels are 0..{self.channels_per_node - 1}"
            )
        return self.schedule.at(slot).physical(node, label)

    def assignment_at(self, slot: int) -> ChannelAssignment:
        return self.schedule.at(slot)
