"""Shared type aliases and exception hierarchy for the repro package.

The whole library speaks in terms of three scalar identifiers:

- :data:`NodeId` — the unique identity of a node (the paper assumes each
  node has a unique id; we use non-negative integers).
- :data:`Channel` — a *physical* (global) channel identifier, i.e. the
  label a global oracle would use.  Algorithms never see these directly;
  they see *local labels* (plain ``int`` indices ``0..c-1``) which a
  :class:`repro.sim.channels.Network` translates per node.
- :data:`Slot` — a zero-based synchronous time slot index.

It also holds :func:`slot_init`, the constructor speed-up for the frozen
records the engine builds every slot; it lives here because every layer
already imports this module and it imports nothing from ``repro``.
"""

from __future__ import annotations

import dataclasses
import functools
from types import CodeType, FunctionType, MemberDescriptorType
from typing import Any, TypeVar

NodeId = int
Channel = int
Slot = int
LocalLabel = int


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidAssignmentError(ReproError):
    """A channel assignment violates the model's structural invariants.

    Raised when a node has the wrong number of channels, duplicate
    channels, or a pair of nodes overlaps on fewer than ``k`` channels.
    """


class ProtocolViolationError(ReproError):
    """A protocol produced an action the model does not allow.

    For example: broadcasting on a local label outside ``0..c-1``, or
    emitting an action after having declared termination.
    """


class SimulationError(ReproError):
    """The simulation could not complete (e.g. slot budget exhausted)."""


class GameError(ReproError):
    """A hitting-game player or referee violated the game's rules."""


_Record = TypeVar("_Record", bound=type)


@functools.cache
def _init_template(arity: int) -> CodeType:
    """Code of ``__init__(self, a0, ...)`` whose body is ``s<i>(self, a<i>)``.

    Compiled once per field count and shared by every record of that
    size; :func:`slot_init` renames the parameters and binds each
    ``s<i>`` to a slot setter through the function's globals.
    """
    params = "".join(f", a{i}" for i in range(arity))
    body = "".join(f"    s{i}(self, a{i})\n" for i in range(arity))
    namespace: dict[str, Any] = {}
    exec(f"def __init__(self{params}):\n{body or '    pass'}\n", namespace)
    return namespace["__init__"].__code__


def slot_init(cls: _Record) -> _Record:
    """Rebuild a frozen slotted dataclass's ``__init__`` around its slots.

    Apply on top of ``@dataclass(frozen=True, slots=True)``.  The
    dataclass-generated ``__init__`` of a frozen class stores every
    field through ``object.__setattr__``, which pays for a generic
    attribute lookup and the frozen-override check on each store.  The
    replacement keeps the same signature and defaults but stores each
    field straight through the class's own slot (member) descriptor,
    which makes a record about a third cheaper to build.  Everything
    else — ``fields()``, eq/hash/repr, ``replace()``, pickling and
    ``FrozenInstanceError`` — is the dataclass's own, untouched.

    Classes whose generated ``__init__`` does more than store its
    arguments cannot be reproduced this way and are refused with
    :class:`TypeError` when the class is created: non-frozen or
    non-slotted classes, ``default_factory`` / ``InitVar`` /
    ``init=False`` fields, and classes with a ``__post_init__``.
    """
    name = cls.__qualname__
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.init:
        raise TypeError(f"slot_init: {name} has no dataclass-generated __init__")
    if not params.frozen:
        raise TypeError(f"slot_init: {name} is not frozen")
    if "__slots__" not in cls.__dict__:
        raise TypeError(f"slot_init: {name} is not slotted")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"slot_init: {name} defines __post_init__")
    fields = dataclasses.fields(cls)
    # Keyword-only fields follow the positional ones, as in the
    # generated signature.
    ordered = [f for f in fields if not f.kw_only] + [f for f in fields if f.kw_only]
    setters = {}
    for index, f in enumerate(ordered):
        if not f.init:
            raise TypeError(f"slot_init: {name}.{f.name} is init=False")
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"slot_init: {name}.{f.name} has a default_factory")
        member = getattr(cls, f.name, None)
        if type(member) is not MemberDescriptorType:
            raise TypeError(f"slot_init: {name}.{f.name} is not a slot")
        setters[f"s{index}"] = member.__set__
    names = tuple(f.name for f in ordered)
    generated = cls.__init__
    code = generated.__code__
    # An InitVar is a parameter of the generated __init__ but not a field.
    if code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount] != names:
        raise TypeError(f"slot_init: {name} has InitVar parameters")
    init = FunctionType(
        _init_template(len(ordered)).replace(
            co_varnames=code.co_varnames[:1] + names,
            co_argcount=code.co_argcount,
            co_kwonlyargcount=code.co_kwonlyargcount,
        ),
        setters,
        "__init__",
        generated.__defaults__,
    )
    init.__kwdefaults__ = generated.__kwdefaults__
    init.__qualname__ = generated.__qualname__
    init.__module__ = generated.__module__
    init.__annotations__ = dict(generated.__annotations__)
    cls.__init__ = init
    return cls
