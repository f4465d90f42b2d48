"""The per-slot record contract of :func:`repro.types.slot_init`.

Every class the engine builds per node-slot or per channel-slot swaps
its dataclass-generated ``__init__`` for one that stores through the
slot descriptors.  Each one must stay indistinguishable from the stock
frozen slotted dataclass it was declared as; this suite compares each
against an undecorated twin built from the same fields, and checks that
the decorator refuses every class shape it cannot reproduce exactly.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from dataclasses import InitVar, dataclass, field

import pytest

from repro.core.cogcast import LogEntry
from repro.core.messages import (
    AckPayload,
    ClusterSizePayload,
    CountPayload,
    InitPayload,
    MediatorAnnouncePayload,
    ValueReportPayload,
)
from repro.sim.actions import Broadcast, Envelope, Listen, SlotOutcome
from repro.sim.collision import Resolution
from repro.sim.trace import ChannelEvent
from repro.types import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class KwOnlyRecord:
    """Covers keyword-only fields, which no engine record uses yet."""

    first: int
    second: int = 2
    third: int = field(default=3, kw_only=True)
    fourth: int = field(kw_only=True, default=4)


RECORDS = [
    Envelope,
    Broadcast,
    Listen,
    SlotOutcome,
    Resolution,
    ChannelEvent,
    LogEntry,
    InitPayload,
    CountPayload,
    ClusterSizePayload,
    MediatorAnnouncePayload,
    ValueReportPayload,
    AckPayload,
    KwOnlyRecord,
]


def stock_twin(cls):
    """An undecorated frozen slotted dataclass with *cls*'s fields."""
    specs = []
    for f in dataclasses.fields(cls):
        kwargs = {"kw_only": f.kw_only, "repr": f.repr, "hash": f.hash, "compare": f.compare}
        if f.default is not dataclasses.MISSING:
            kwargs["default"] = f.default
        specs.append((f.name, f.type, field(**kwargs)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, slots=True)


def sample_args(cls, *, required_only=False):
    """Distinct hashable values per field: (positional, keyword-only)."""
    positional, keyword = [], {}
    for f in dataclasses.fields(cls):
        if required_only and f.default is not dataclasses.MISSING:
            continue
        value = f"{f.name}-value"
        if f.kw_only:
            keyword[f.name] = value
        else:
            positional.append(value)
    return positional, keyword


def pairs(cls):
    """(decorated, twin) instances built positionally, by keyword, by default."""
    twin = stock_twin(cls)
    positional, keyword = sample_args(cls)
    all_keywords = {f.name: f"{f.name}-value" for f in dataclasses.fields(cls)}
    required, required_kw = sample_args(cls, required_only=True)
    return [
        (cls(*positional, **keyword), twin(*positional, **keyword)),
        (cls(**all_keywords), twin(**all_keywords)),
        (cls(*required, **required_kw), twin(*required, **required_kw)),
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_built_by_slot_init(self, cls):
        assert "__dataclass_builtins_object__" not in cls.__init__.__code__.co_names

    def test_signature(self, cls):
        twin = stock_twin(cls)
        assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
        assert inspect.signature(cls) == inspect.signature(twin)
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"

    def test_construction_matches_twin(self, cls):
        for record, stock in pairs(cls):
            assert repr(record) == repr(stock)
            assert dataclasses.astuple(record) == dataclasses.astuple(stock)

    def test_argument_errors_match_twin(self, cls):
        twin = stock_twin(cls)
        positional, keyword = sample_args(cls)
        calls = [
            ((*positional, "extra"), keyword),
            (tuple(positional), {**keyword, "bogus": 1}),
        ]
        if dataclasses.fields(cls):
            calls.append(((), {}))
        for args, kwargs in calls:
            with pytest.raises(TypeError) as ours:
                cls(*args, **kwargs)
            with pytest.raises(TypeError) as theirs:
                twin(*args, **kwargs)
            assert str(ours.value) == str(theirs.value)

    def test_fields_replace_asdict(self, cls):
        twin = stock_twin(cls)

        def describe(klass):
            return [
                (f.name, f.type, f.default, f.init, f.repr, f.hash, f.compare, f.kw_only)
                for f in dataclasses.fields(klass)
            ]

        assert describe(cls) == describe(twin)
        for record, stock in pairs(cls):
            assert dataclasses.asdict(record) == dataclasses.asdict(stock)
            assert dataclasses.replace(record) == record
            for f in dataclasses.fields(cls):
                changed = dataclasses.replace(record, **{f.name: "changed"})
                assert getattr(changed, f.name) == "changed"
                assert repr(changed) == repr(dataclasses.replace(stock, **{f.name: "changed"}))

    def test_eq_and_hash(self, cls):
        """Equal field values collapse in a set, any differing field does not."""
        positional, keyword = sample_args(cls)
        for klass in (cls, stock_twin(cls)):
            record = klass(*positional, **keyword)
            again = klass(*positional, **keyword)
            assert record == again and record is not again
            variants = [
                dataclasses.replace(record, **{f.name: "other"})
                for f in dataclasses.fields(cls)
            ]
            assert all(record != variant for variant in variants)
            assert len({record, again, *variants}) == 1 + len(variants)
        assert cls.__hash__ is not None and cls.__eq__ is not object.__eq__

    def test_frozen_on_set_and_delete(self, cls):
        record = pairs(cls)[0][0]
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, "changed")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)

    def test_pickle_and_deepcopy_round_trip(self, cls):
        for record, _ in pairs(cls):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                loaded = pickle.loads(pickle.dumps(record, protocol))
                assert loaded == record and type(loaded) is cls
            copied = copy.deepcopy(record)
            assert copied == record and type(copied) is cls
            assert copy.copy(record) == record


def not_frozen():
    @dataclass(slots=True)
    class Record:
        x: int

    return Record


def not_slotted():
    @dataclass(frozen=True)
    class Record:
        x: int

    return Record


def default_factory():
    @dataclass(frozen=True, slots=True)
    class Record:
        x: tuple = field(default_factory=tuple)

    return Record


def init_var():
    @dataclass(frozen=True, slots=True)
    class Record:
        x: int
        scale: InitVar[int] = 1

    return Record


def init_false():
    @dataclass(frozen=True, slots=True)
    class Record:
        x: int
        y: int = field(default=0, init=False)

    return Record


def post_init():
    @dataclass(frozen=True, slots=True)
    class Record:
        x: int

        def __post_init__(self):
            pass

    return Record


def own_init():
    @dataclass(frozen=True, slots=True, init=False)
    class Record:
        x: int

        def __init__(self, x):
            pass

    return Record


def plain_class():
    class Record:
        __slots__ = ("x",)

    return Record


@pytest.mark.parametrize(
    ("shape", "message"),
    [
        (not_frozen, "is not frozen"),
        (not_slotted, "is not slotted"),
        (default_factory, "has a default_factory"),
        (init_var, "has InitVar parameters"),
        (init_false, "is init=False"),
        (post_init, "defines __post_init__"),
        (own_init, "has no dataclass-generated __init__"),
        (plain_class, "has no dataclass-generated __init__"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_unsupported_shapes_are_refused(shape, message):
    cls = shape()
    stock_init = cls.__init__
    with pytest.raises(TypeError, match=message):
        slot_init(cls)
    assert cls.__init__ is stock_init
