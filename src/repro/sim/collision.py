"""Collision/contention models for concurrent broadcasts on one channel.

The paper's model (Section 2): when multiple nodes broadcast on one
channel in one slot, **one message, chosen uniformly at random, is
received by all listeners on the channel**; each broadcaster learns
whether it succeeded, and failed broadcasters receive the winning
message.  The paper notes (footnote 4) that this abstraction is
implementable by standard backoff at poly-log cost — our
:mod:`repro.backoff` package demonstrates that claim.

Footnote 3 notes that the broader CRN literature often assumes an even
*stronger* model where all concurrent messages are delivered; we provide
it as :class:`AllDeliveredCollision` for ablation experiments.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Sequence

from repro.sim.actions import Envelope
from repro.types import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class Resolution:
    """The outcome of contention on one channel in one slot.

    Attributes
    ----------
    winner:
        The envelope every listener (and failed broadcaster) receives,
        or ``None`` when nothing was transmitted.
    extras:
        Additional envelopes delivered to listeners (non-empty only
        under the stronger all-delivered model).
    """

    winner: Envelope | None
    extras: tuple[Envelope, ...] = ()


class CollisionModel(abc.ABC):
    """Resolves concurrent broadcasts on a single channel."""

    @abc.abstractmethod
    def resolve(self, broadcasts: Sequence[Envelope], rng: random.Random) -> Resolution:
        """Given the envelopes broadcast on one channel, pick what is heard."""


class SingleWinnerCollision(CollisionModel):
    """The paper's default model: one uniformly random message succeeds."""

    def resolve(self, broadcasts: Sequence[Envelope], rng: random.Random) -> Resolution:
        if not broadcasts:
            return Resolution(winner=None)
        if len(broadcasts) == 1:
            return Resolution(winner=broadcasts[0])
        return Resolution(winner=rng.choice(list(broadcasts)))


class AllDeliveredCollision(CollisionModel):
    """The stronger CRN-community model (paper footnote 3).

    Every concurrent message is delivered.  We still designate a uniform
    "winner" so that protocols written against the default model (which
    key success off winning) behave sensibly; the remaining messages are
    exposed via :attr:`Resolution.extras`.
    """

    def resolve(self, broadcasts: Sequence[Envelope], rng: random.Random) -> Resolution:
        if not broadcasts:
            return Resolution(winner=None)
        envelopes = list(broadcasts)
        winner = rng.choice(envelopes)
        extras = tuple(env for env in envelopes if env is not winner)
        return Resolution(winner=winner, extras=extras)


class DestructiveCollision(CollisionModel):
    """A harsher model: two or more concurrent broadcasts destroy each other.

    Not used by the paper, but useful to demonstrate *why* the paper
    assumes lower-layer contention resolution: COGCOMP's counting phases
    rely on some message always getting through.  Under this model a
    collision delivers nothing and every broadcaster fails.
    """

    def resolve(self, broadcasts: Sequence[Envelope], rng: random.Random) -> Resolution:
        if len(broadcasts) == 1:
            return Resolution(winner=broadcasts[0])
        return Resolution(winner=None)
