"""Backend names, backend-selection state and the columnar contracts.

A *backend* is one of the names in :data:`BACKEND_NAMES`, and
:func:`repro.sim.engine.build_engine` turns it into an engine:

- ``"exact"`` builds the reference :class:`~repro.sim.engine.Engine`
  (the general kernel plus the fast-path kernel), bit-identical to
  historical behavior.
- ``"vector"`` and ``"vector-replay"`` build a
  :class:`~repro.sim.backends.vector.VectorEngine`, an ``Engine`` that
  adds a numpy columnar kernel representing the whole node population
  as arrays (``rng_mode="numpy"`` and ``"replay"``).  That kernel
  engages only for configurations it can prove equivalent (see
  ``docs/performance.md`` "Backends"); otherwise the same engine runs
  its exact kernels, so selecting it is always safe.

Selection flows through ``build_engine``'s ``backend=`` parameter;
``None`` defers to the per-process default set by
:func:`set_default_backend` (the CLI's ``--backend`` flag), which
:func:`repro.perf.pmap_trials` propagates into worker processes.  This
module imports neither the engine nor numpy.
"""

from __future__ import annotations

import functools
import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.types import SimulationError


class BackendUnavailableError(SimulationError):
    """A backend was requested whose runtime requirements are missing."""


def numpy_available() -> bool:
    """Whether numpy can be imported (without importing it)."""
    return importlib.util.find_spec("numpy") is not None


class AllInformed:
    """Stop condition: every protocol reports ``informed``.

    The broadcast runners' stop predicate, as a named object rather
    than a closure so backends can recognize it: the exact engine just
    calls it per slot, while the vector engine matches
    ``vector_condition`` and evaluates the same predicate as one
    boolean-array reduction instead of ``n`` attribute reads.
    """

    #: Columnar predicate tag recognized by the vector kernel.
    vector_condition = "all_informed"

    __slots__ = ("protocols",)

    def __init__(self, protocols: Sequence[Any]) -> None:
        self.protocols = protocols

    def __call__(self, engine: Any) -> bool:
        return all(protocol.informed for protocol in self.protocols)


class AllKnow:
    """Stop condition: every protocol's ``known`` holds every one of *origins*.

    Gossip's stop predicate, named for the same reason as
    :class:`AllInformed`: the exact engine calls it per slot (a subset
    test against each node's ``known`` keys, building no set), while
    the vector engine matches ``vector_condition`` and keeps a count of
    the (node, origin) pairs still missing.
    """

    #: Columnar predicate tag recognized by the vector kernel.
    vector_condition = "all_know"

    __slots__ = ("protocols", "origins")

    def __init__(self, protocols: Sequence[Any], origins: Iterable[Any]) -> None:
        self.protocols = protocols
        self.origins = frozenset(origins)

    def __call__(self, engine: Any) -> bool:
        origins = self.origins
        return all(origins <= protocol.known.keys() for protocol in self.protocols)


@dataclass(frozen=True)
class VectorField:
    """One field of a columnar program's declared state contract.

    ``dtype`` names the column representation the kernel materializes
    (``"bool"``, ``"int64"``, or ``"object"`` for values that stay
    Python-side, like the node's view); ``nullable`` marks fields
    whose per-node value may be ``None`` (unset parent, not-yet-informed
    slot).  Declared dtypes are deliberately wide — ``int64`` and
    ``bool`` are exact under any reduction order, which is what keeps
    replay mode bit-identical (lint rule R13 guards the float side).
    """

    name: str
    dtype: str
    nullable: bool = False


@dataclass(frozen=True)
class VectorContract:
    """The declared export/import field set for one ``vector_kind``.

    A protocol advertising *kind* must export at least these fields
    from ``vector_export()``; the kernel validates every export against
    the contract and falls back to the exact engine (never crashes,
    never silently drops state) when any of them misses fields.
    Lint rule R11 checks the same property statically, and
    ``repro sanitize`` checks it dynamically — three layers, one
    contract.
    """

    kind: str
    fields: tuple[VectorField, ...]

    @functools.cached_property
    def field_names(self) -> frozenset[str]:
        """The contract's field names, computed once per contract."""
        return frozenset(field.name for field in self.fields)

    def missing_fields(self, export: Mapping[str, Any]) -> list[str]:
        """Contract fields absent from one protocol's export dict."""
        return sorted(self.field_names.difference(export))


#: Declared contracts, keyed by ``vector_kind``.  The epidemic
#: broadcast contract mirrors ``CogCast``'s exported state exactly:
#: integer/bool columns for everything the kernel advances, object
#: fields for the message payload and the node's ``view``.  The gossip
#: contract mirrors ``GossipCast``'s: its ``known`` and ``first_heard``
#: dicts (origin -> payload, origin -> slot), which the kernel turns
#: into a node-by-origin boolean matrix and back, and the ``view``.
#: Only ``vector-replay`` reads a view, for its stream
#: (``export["view"].rng``); ``vector`` never does, so it seeds no
#: node stream.
VECTOR_CONTRACTS: dict[str, VectorContract] = {
    "epidemic-broadcast": VectorContract(
        kind="epidemic-broadcast",
        fields=(
            VectorField("informed", "bool"),
            VectorField("message", "object", nullable=True),
            VectorField("parent", "int64", nullable=True),
            VectorField("informed_slot", "int64", nullable=True),
            VectorField("informed_label", "int64", nullable=True),
            VectorField("current_label", "int64"),
            VectorField("keep_log", "bool"),
            VectorField("view", "object"),
        ),
    ),
    "gossip": VectorContract(
        kind="gossip",
        fields=(
            VectorField("known", "object"),
            VectorField("first_heard", "object"),
            VectorField("view", "object"),
        ),
    ),
}


def vector_contract(kind: str) -> VectorContract | None:
    """The declared contract for *kind*, or ``None`` if undeclared."""
    return VECTOR_CONTRACTS.get(kind)


#: Names accepted by ``build_engine(backend=...)`` and ``--backend``.
BACKEND_NAMES: tuple[str, ...] = ("exact", "vector", "vector-replay")

#: Per-process default backend name used when ``backend=None``.
_DEFAULT_BACKEND = "exact"


def set_default_backend(name: str | None) -> None:
    """Set the backend used when callers pass ``backend=None``.

    ``None`` resets to ``"exact"``.  The CLI's ``--backend`` flag calls
    this once at startup — mirroring ``set_default_jobs`` — so every
    runner and experiment in the process picks the selection up without
    threading a parameter through every ``run()`` signature.
    :func:`repro.perf.pmap_trials` snapshots the default into its
    worker processes, so parallel trial loops honor it too.
    """
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = "exact" if name is None else resolve_backend(name)


def default_backend_name() -> str:
    """The current per-process default backend name."""
    return _DEFAULT_BACKEND


@contextmanager
def backend_scope(name: str | None) -> Iterator[None]:
    """Temporarily set the default backend (restored on exit).

    ``None`` is a no-op scope, so callers can pass an optional backend
    straight through: ``with backend_scope(backend): ...``.
    """
    if name is None:
        yield
        return
    previous = _DEFAULT_BACKEND
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def resolve_backend(backend: str | None) -> str:
    """The backend name a ``backend=`` argument selects.

    ``None`` is the per-process default; a name in
    :data:`BACKEND_NAMES` is itself; anything else raises
    ``ValueError``.
    """
    if backend is None:
        return _DEFAULT_BACKEND
    if backend not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ValueError(f"unknown backend {backend!r}; known backends: {known}")
    return backend


def available_backends() -> dict[str, str | None]:
    """Map every backend name to ``None`` (usable) or why it is not."""
    missing = None
    if not numpy_available():
        missing = "numpy is not installed (pip install 'repro[perf]')"
    return {name: None if name == "exact" else missing for name in BACKEND_NAMES}


StopCondition = Callable[[Any], bool]
