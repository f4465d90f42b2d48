"""The :class:`EngineBackend` contract and backend-selection state.

A *backend* is a strategy for executing a population of per-node
protocols over a :class:`~repro.sim.channels.Network`.  Every backend
builds an *engine-like* object with the same observable surface as
:class:`repro.sim.engine.Engine` — ``protocols``, ``network``, ``rng``,
``run(max_slots, stop_when=..., require_completion=...)`` returning a
:class:`~repro.sim.engine.RunResult`, ``all_done``, and
``fast_path_engaged`` — so the measurement harnesses in
:mod:`repro.core.runners` and :mod:`repro.baselines.runners` never
branch on which backend is active.

Two backends ship:

- :class:`~repro.sim.backends.exact.ExactBackend` — the reference
  per-node engine (the general kernel plus the PR-3 fast-path kernel),
  bit-identical to historical behavior.
- :class:`~repro.sim.backends.vector.VectorBackend` — a numpy columnar
  engine that represents the whole node population as arrays.  It
  engages only for configurations it can prove equivalent (see
  ``docs/performance.md`` "Backends") and otherwise falls back to the
  exact engine, so selecting it is always safe.

Selection flows through :func:`repro.sim.engine.build_engine`'s
``backend=`` parameter; ``None`` defers to the per-process default set
by :func:`set_default_backend` (the CLI's ``--backend`` flag), which
:func:`repro.perf.pmap_trials` propagates into worker processes.
"""

from __future__ import annotations

import abc
import functools
import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Iterator,
    Mapping,
    Sequence,
)

from repro.types import SimulationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.adversary import Jammer
    from repro.sim.channels import Network
    from repro.sim.collision import CollisionModel
    from repro.sim.protocol import Protocol
    from repro.sim.trace import EventTrace


class BackendUnavailableError(SimulationError):
    """A backend was requested whose runtime requirements are missing."""


def numpy_available() -> bool:
    """Whether numpy can be imported (without importing it)."""
    return importlib.util.find_spec("numpy") is not None


class EngineBackend(abc.ABC):
    """Strategy interface: build an engine-like executor for one run.

    Backends are stateless factories; all per-run state lives in the
    engine object they build.  ``name`` is the registry key users spell
    in ``build_engine(backend=...)`` and ``--backend``.
    """

    name: ClassVar[str]

    @abc.abstractmethod
    def build(
        self,
        network: "Network",
        protocols: "Sequence[Protocol]",
        *,
        collision: "CollisionModel | None" = None,
        seed: int = 0,
        trace: "EventTrace | None" = None,
        jammer: "Jammer | None" = None,
        probe: Any = None,
        fast_path: bool = True,
    ) -> Any:
        """Build the engine-like executor for *protocols* over *network*."""

    def unavailable_reason(self) -> str | None:
        """Why this backend cannot run here, or ``None`` if it can."""
        return None

    def available(self) -> bool:
        """Whether this backend's runtime requirements are met."""
        return self.unavailable_reason() is None


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


@dataclass(frozen=True)
class VectorField:
    """One field of a columnar program's declared state contract.

    ``dtype`` names the column representation the kernel materializes
    (``"bool"``, ``"int64"``, or ``"object"`` for values that stay
    Python-side, like a live RNG handle); ``nullable`` marks fields
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
#: fields for the message payload and the live replay RNG handle.
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
            VectorField("rng", "object"),
        ),
    ),
}


def vector_contract(kind: str) -> VectorContract | None:
    """The declared contract for *kind*, or ``None`` if undeclared."""
    return VECTOR_CONTRACTS.get(kind)


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
    _DEFAULT_BACKEND = "exact" if name is None else _check_backend_name(name)


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


def _check_backend_name(name: str) -> str:
    """Validate a backend name against the registry (import-cycle-free)."""
    from repro.sim.backends import BACKEND_NAMES

    if name not in BACKEND_NAMES:
        known = ", ".join(sorted(BACKEND_NAMES))
        raise ValueError(f"unknown backend {name!r}; known backends: {known}")
    return name


def resolve_backend(
    backend: "str | EngineBackend | None",
) -> "EngineBackend":
    """Resolve a ``backend=`` argument to a concrete backend instance.

    Accepts a registry name, an :class:`EngineBackend` instance (passed
    through), or ``None`` (the per-process default).
    """
    from repro.sim.backends import get_backend

    if backend is None:
        return get_backend(_DEFAULT_BACKEND)
    if isinstance(backend, str):
        return get_backend(backend)
    if isinstance(backend, EngineBackend):
        return backend
    raise TypeError(
        f"backend must be a name, an EngineBackend, or None; got {backend!r}"
    )


StopCondition = Callable[[Any], bool]
