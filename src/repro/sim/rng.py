"""Deterministic random-stream management.

Every stochastic component in the library (each node's protocol, the
collision model, assignment generators, adversaries, game referees)
draws from its own :class:`random.Random` stream, derived from a single
root seed.  This makes every experiment row exactly reproducible while
keeping the streams statistically independent of one another: reordering
the slot loop or adding a new consumer never perturbs existing streams.

The derivation is a stable hash of ``(root_seed, *scope)`` where *scope*
is any tuple of strings/ints naming the consumer, e.g.
``("node", 17)`` or ``("collision",)``.
"""

from __future__ import annotations

import hashlib
import operator
import random
from typing import Iterable


def derive_seed(root_seed: int, *scope: object) -> int:
    """Derive a stable 64-bit seed for a named consumer.

    Uses BLAKE2b over the textual representation of the root seed and
    scope path.  Python's ``hash()`` is salted per process, so it must
    not be used here.  An integer root seed that is not a Python
    ``int`` (a numpy integer, whose repr names its type under numpy 2)
    is converted with :func:`operator.index` first, so it derives the
    streams of the equal ``int``.

    >>> derive_seed(0, "node", 1) == derive_seed(0, "node", 1)
    True
    >>> derive_seed(0, "node", 1) != derive_seed(0, "node", 2)
    True
    """
    if not isinstance(root_seed, int) and hasattr(root_seed, "__index__"):
        root_seed = operator.index(root_seed)
    text = repr((root_seed,) + scope).encode("utf-8")
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(root_seed: int, *scope: object) -> random.Random:
    """Return a fresh :class:`random.Random` seeded for *scope*."""
    return random.Random(derive_seed(root_seed, *scope))


def spawn_rngs(root_seed: int, prefix: str, count: int) -> list[random.Random]:
    """Return *count* independent RNGs named ``(prefix, 0..count-1)``.

    Convenience for giving each of ``n`` nodes its own stream.
    """
    return [derive_rng(root_seed, prefix, index) for index in range(count)]


def sample_distinct(rng: random.Random, population: Iterable[int], count: int) -> list[int]:
    """Sample *count* distinct items from *population* using *rng*.

    Materializes the population once; intended for moderate sizes (the
    channel universes used in experiments).
    """
    items = list(population)
    return rng.sample(items, count)
