"""The protocol interface that node algorithms implement.

A :class:`Protocol` is a per-node state machine driven by the engine:

- :meth:`Protocol.begin_slot` is called at the start of each slot and
  must return an :class:`~repro.sim.actions.Action`;
- :meth:`Protocol.end_slot` is called with the resulting
  :class:`~repro.sim.actions.SlotOutcome`;
- :attr:`Protocol.done` tells the engine the node has terminated (a
  terminated node implicitly idles).

Protocols are constructed with a :class:`NodeView` — the *only* handle a
node algorithm gets on the world.  It exposes the node's identity, how
many channels it has, and its private RNG.  It deliberately does **not**
expose physical channel identifiers, other nodes' channel sets, or the
overlap structure: the paper's model gives nodes none of that.
"""

from __future__ import annotations

import abc
import functools
import random
from dataclasses import FrozenInstanceError

from repro.sim.actions import Action, SlotOutcome
from repro.sim.rng import derive_rng
from repro.types import NodeId


class NodeView:
    """A node's local view of the network.

    Attributes
    ----------
    node_id:
        This node's unique identity (known to the node, per the model).
    num_channels:
        ``c`` — how many channels this node can tune; local labels are
        ``0..num_channels-1``.
    overlap:
        ``k`` — the guaranteed pairwise overlap (known to nodes, per the
        model: "Each node knows the value of k").
    num_nodes:
        ``n`` — used by the paper's algorithms only to size their running
        time (Theorem 4's discussion notes no other dependence).
    rng:
        This node's private random stream.  A view built with a root
        ``seed`` (as :func:`repro.sim.engine.make_views` builds every
        engine's views) derives it, ``derive_rng(seed, "node",
        node_id)``, the first time it is read and returns that same
        object on every later read, so a node that never draws seeds no
        stream.  A view built with ``rng`` uses that stream as given.

    Construct with exactly one of ``rng`` (positional or keyword) and
    the keyword ``seed``.  A view is immutable: assigning or deleting
    an attribute raises :class:`dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("node_id", "num_channels", "overlap", "num_nodes", "_rng", "_seed")

    node_id: NodeId
    num_channels: int
    overlap: int
    num_nodes: int

    def __init__(
        self,
        node_id: NodeId,
        num_channels: int,
        overlap: int,
        num_nodes: int,
        rng: random.Random | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if (rng is None) == (seed is None):
            raise TypeError("NodeView takes exactly one of rng and seed")
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "num_channels", num_channels)
        object.__setattr__(self, "overlap", overlap)
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "_rng", rng)
        object.__setattr__(self, "_seed", seed)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"NodeView(node_id={self.node_id!r}, num_channels={self.num_channels!r}, "
            f"overlap={self.overlap!r}, num_nodes={self.num_nodes!r})"
        )

    def __reduce__(self) -> tuple:
        # Copies and pickles rebuild the view through __init__, since
        # its attributes cannot be set; an unread view keeps its seed.
        fields = (self.node_id, self.num_channels, self.overlap, self.num_nodes)
        if self._rng is None:
            return functools.partial(NodeView, seed=self._seed), fields
        return NodeView, fields + (self._rng,)

    @property
    def rng(self) -> random.Random:
        """This node's stream, derived from the root seed on first read."""
        rng = self._rng
        if rng is None:
            rng = derive_rng(self._seed, "node", self.node_id)
            object.__setattr__(self, "_rng", rng)
        return rng

    def random_label(self) -> int:
        """A local channel label chosen uniformly at random."""
        # The exact kernels call this every node-slot: read the slot,
        # and take the property only for the first draw.
        rng = self._rng
        if rng is None:
            rng = self.rng
        return rng.randrange(self.num_channels)


class Protocol(abc.ABC):
    """Base class for per-node algorithms.

    Subclasses receive their :class:`NodeView` however they like
    (conventionally as the first constructor argument) and implement the
    two slot hooks.  The engine guarantees ``begin_slot``/``end_slot``
    are called in strictly alternating order with increasing slot
    numbers, and stops calling both once :attr:`done` is true.
    """

    @abc.abstractmethod
    def begin_slot(self, slot: int) -> Action:
        """Choose this node's action for *slot*."""

    @abc.abstractmethod
    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        """Observe the outcome of *slot*."""

    @property
    def done(self) -> bool:
        """Whether this node has terminated.  Defaults to never."""
        return False


class IdleProtocol(Protocol):
    """A protocol that never participates.  Useful in tests."""

    def __init__(self, view: NodeView) -> None:
        self.view = view

    def begin_slot(self, slot: int) -> Action:
        from repro.sim.actions import Idle

        return Idle()

    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        return None
