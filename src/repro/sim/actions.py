"""Per-slot actions and observations exchanged between protocols and the engine.

The information flow in one synchronous slot is:

1. The engine asks every live protocol for an :class:`Action` — one of
   :class:`Broadcast`, :class:`Listen`, or :class:`Idle`.  Channels are
   referenced by **local label** (an index into the node's own channel
   set); protocols never see physical channel identifiers.
2. The engine resolves contention per physical channel (see
   :mod:`repro.sim.collision`) and hands each protocol a
   :class:`SlotOutcome` describing what that node observed.

The outcome encodes the paper's model faithfully (Section 2):

- a listener on a channel where exactly one message wins receives it;
- when multiple nodes broadcast, one message (uniform among broadcasters
  under the default model) is received by *all* listeners;
- every broadcaster learns whether it succeeded, and a failed
  broadcaster additionally receives the message that won.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.types import LocalLabel, NodeId, slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class Envelope:
    """A message in flight: sender identity plus opaque payload.

    Real radios put the sender id inside the frame; modelling it as an
    explicit field saves every protocol from re-encoding it.  ``payload``
    is treated as opaque by the engine.
    """

    sender: NodeId
    payload: Any


@slot_init
@dataclass(frozen=True, slots=True)
class Broadcast:
    """Broadcast *payload* on the node's local channel *label* this slot."""

    label: LocalLabel
    payload: Any


@slot_init
@dataclass(frozen=True, slots=True)
class Listen:
    """Listen on the node's local channel *label* this slot."""

    label: LocalLabel


@dataclass(frozen=True, slots=True)
class Idle:
    """Do nothing this slot (radio off).

    Not used by the paper's algorithms — every node participates every
    slot — but needed for terminated COGCOMP nodes and for adversarial
    or baseline schedules.
    """


Action = Broadcast | Listen | Idle


@slot_init
@dataclass(frozen=True, slots=True)
class SlotOutcome:
    """What one node observed at the end of one slot.

    Attributes
    ----------
    slot:
        The slot index this outcome belongs to.
    action:
        The action this node took (echoed back for convenience).
    received:
        The envelope delivered to this node, if any.  For a listener this
        is the winning message on its channel (or ``None`` for silence).
        For a failed broadcaster this is the message that beat it.  For a
        successful broadcaster it is ``None``.
    success:
        For broadcasters: whether this node's message won the channel.
        ``None`` for listeners and idle nodes.
    jammed:
        True when an adversary jammed this node's channel this slot: the
        node observes noise — a listener receives nothing, a broadcaster
        is told it failed and receives nothing.
    extra_received:
        Under the *stronger* collision model used elsewhere in the CRN
        literature (paper footnote 3), every concurrent message is
        delivered; the additional ones beyond ``received`` appear here.
        Empty under the paper's default model.
    """

    slot: int
    action: Action
    received: Optional[Envelope] = None
    success: Optional[bool] = None
    jammed: bool = False
    extra_received: tuple[Envelope, ...] = field(default=())

    @property
    def heard_silence(self) -> bool:
        """True when the node listened and received nothing."""
        return isinstance(self.action, Listen) and self.received is None and not self.jammed
