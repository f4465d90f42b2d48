"""Message payloads used by COGCAST and COGCOMP.

The engine treats payloads as opaque; these dataclasses give each
protocol message a typed shape.  The sender's identity travels in the
:class:`~repro.sim.actions.Envelope`, not in the payload, mirroring a
radio frame header.

Slot numbers inside payloads are *absolute* engine slot indices; since
all nodes are activated simultaneously (Section 2 of the paper), every
node can convert between absolute slots and phase-relative slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.types import NodeId, Slot, slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class InitPayload:
    """Phase-one / COGCAST broadcast message.

    ``origin`` is the source node; ``body`` is the application payload
    being disseminated (shared random bits, configuration, ...).
    """

    origin: NodeId
    body: Any = None


@slot_init
@dataclass(frozen=True, slots=True)
class CountPayload:
    """Phase-two census message: ``<u, r>`` in the paper's notation.

    ``node`` announces it was first informed in slot ``informed_slot``
    (on the channel the message is sent on, implicitly).
    """

    node: NodeId
    informed_slot: Slot


@slot_init
@dataclass(frozen=True, slots=True)
class ClusterSizePayload:
    """Phase-three rewind message: a cluster reports its size to its informer.

    All members of the ``(informed_slot, channel)`` cluster broadcast
    this simultaneously; whichever wins carries the (identical) size.
    """

    informed_slot: Slot
    size: int


@slot_init
@dataclass(frozen=True, slots=True)
class MediatorAnnouncePayload:
    """Phase-four slot-1 message: the channel mediator names the cluster
    (by its informing slot) whose members should report this step."""

    cluster_slot: Slot


@slot_init
@dataclass(frozen=True, slots=True)
class ValueReportPayload:
    """Phase-four slot-2 message: a sender passes its subtree aggregate
    to its parent.  ``cluster_slot`` identifies the sender's cluster so
    the receiver can match the report against the cluster it is
    currently collecting."""

    cluster_slot: Slot
    value: Any


@slot_init
@dataclass(frozen=True, slots=True)
class AckPayload:
    """Phase-four slot-3 message: the receiver echoes the identity of the
    sender whose report it just accepted."""

    node: NodeId
