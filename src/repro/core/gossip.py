"""Multi-message gossip: the epidemic pattern beyond one source.

**Extension, not in the paper.**  The paper analyses a single source;
its introduction, however, frames local broadcast as a generic
synchronization primitive.  The obvious next ask is *m* simultaneous
sources (e.g. several nodes each holding a configuration fragment, and
everyone needing all of them).  This module extends the COGCAST pattern
minimally and honestly:

- every node keeps the *set* of messages it has heard;
- each slot it picks a uniformly random channel (unchanged);
- a node holding at least one message broadcasts one of its messages
  chosen uniformly at random (a node with none listens);
- a broadcasting node cannot hear (half-duplex, as everywhere else in
  the library) — which is the interesting cost: once informed, a node
  only learns further messages via the single-winner collision
  fallback, when its own broadcast *loses* and the winner carries a
  message it lacks.

No w.h.p. bound is claimed; experiment E27 measures the slots-vs-m
scaling empirically and compares it against running COGCAST m times
sequentially (the composition the paper's tools directly support).

The measurement harness is :func:`repro.core.runners.run_gossip`;
protocol modules never import the engine (lint rule R4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.messages import InitPayload
from repro.sim.actions import Action, Broadcast, Listen, SlotOutcome
from repro.sim.protocol import NodeView, Protocol
from repro.types import NodeId


class GossipCast(Protocol):
    """COGCAST generalized to a set of circulating messages.

    Parameters
    ----------
    view:
        The node's local view.
    initial:
        The message this node originates, if any: at most one body,
        which becomes an :class:`~repro.core.messages.InitPayload`
        keyed by this node's id.  More than one raises ``ValueError``
        (``known`` holds one message per origin).
    """

    #: Columnar program tag for the vector engine backend (duck-typed,
    #: as on ``CogCast``): the backend batch-executes the same rule.
    vector_kind = "gossip"

    def __init__(self, view: NodeView, initial: Sequence[Any] = ()) -> None:
        if len(initial) > 1:
            raise ValueError(
                f"a node originates at most one message, got {len(initial)}"
            )
        self.view = view
        self.known: dict[NodeId, InitPayload] = {}
        for body in initial:
            payload = InitPayload(origin=view.node_id, body=body)
            self.known[view.node_id] = payload
        self.first_heard: dict[NodeId, int] = {}

    def begin_slot(self, slot: int) -> Action:
        """Broadcast one known message on a random channel, else listen."""
        label = self.view.random_label()
        if self.known:
            origins = sorted(self.known)
            origin = origins[self.view.rng.randrange(len(origins))]
            return Broadcast(label, self.known[origin])
        return Listen(label)

    def end_slot(self, slot: int, outcome: SlotOutcome) -> None:
        """Absorb any message carried by the slot (listen or lost contention)."""
        received = outcome.received
        if received is not None and isinstance(received.payload, InitPayload):
            origin = received.payload.origin
            if origin not in self.known:
                self.known[origin] = received.payload
                self.first_heard[origin] = slot
        for extra in outcome.extra_received:
            if isinstance(extra.payload, InitPayload):
                origin = extra.payload.origin
                if origin not in self.known:
                    self.known[origin] = extra.payload
                    self.first_heard[origin] = slot

    def vector_export(self) -> dict[str, Any]:
        """Snapshot the state the vector backend batch-executes.

        ``view`` is the node's :class:`~repro.sim.protocol.NodeView`,
        whose stream only replay mode reads (so a ``vector`` run seeds
        none).
        """
        return {
            "known": self.known,
            "first_heard": self.first_heard,
            "view": self.view,
        }

    def vector_import(self, state: dict[str, Any]) -> None:
        """Restore state after a columnar run (plain Python values)."""
        self.known = state["known"]
        self.first_heard = state["first_heard"]


@dataclass(frozen=True, slots=True)
class GossipResult:
    """Outcome of one gossip execution."""

    slots: int
    completed: bool
    messages: int
    coverage: tuple[int, ...]  # per-node count of messages known at the end
