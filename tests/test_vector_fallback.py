"""The vector backend's fallbacks to the exact kernels.

Three checks read the protocols' ``vector_export()`` snapshots rather
than the engine configuration: a declared-contract violation (an export
missing fields the kernel materializes), a population that keeps
per-slot logs, and (replay only) node streams the batched label draws
cannot replay.  All must fall back to the exact engine like every
other ineligible configuration: same reason strings, same results, and
one engine run per ``run()`` in the registry that counts it.

A fallback is the same engine running its exact kernels, so a columnar
run followed by a fallback run continues one slot clock and one
collision stream, exactly as two runs of the exact engine do, for
COGCAST and for gossip alike.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.assignment import shared_core
from repro.core import CogCast, GossipCast
from repro.obs.metrics import MetricsRegistry, count_run
from repro.sim import Network
from repro.sim.backends import AllInformed, AllKnow, BACKEND_NAMES, numpy_available
from repro.sim.engine import build_engine

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


class PartialExport(CogCast):
    """COGCAST whose export omits two of the contract's fields."""

    vector_kind = "epidemic-broadcast"

    def vector_export(self):
        export = super().vector_export()
        del export["rng"], export["parent"]
        return export

    def vector_import(self, state):
        """Unchanged; a ``vector_kind`` class defines the pair (lint R11)."""
        super().vector_import(state)


def logging_factory(view):
    return CogCast(view, is_source=(view.node_id == 0), keep_log=True)


def partial_factory(view):
    return PartialExport(view, is_source=(view.node_id == 0))


class Stream(random.Random):
    """A ``random.Random`` subclass, which may draw by rules of its own."""


def shared_stream_factory():
    """A factory whose node 1 draws labels from node 0's stream."""
    node_zero = []

    def factory(view):
        if view.node_id == 0:
            node_zero.append(view.rng)
        elif view.node_id == 1:
            view = replace(view, rng=node_zero[0])
        return CogCast(view, is_source=(view.node_id == 0))

    return factory


def subclass_stream_factory():
    """A factory whose nodes draw from ``Stream`` copies of their streams."""

    def factory(view):
        stream = Stream()
        stream.setstate(view.rng.getstate())
        return CogCast(replace(view, rng=stream), is_source=(view.node_id == 0))

    return factory


def network(seed: int = 5) -> Network:
    return Network.static(shared_core(24, 6, 2, random.Random(seed)))


def drive(factory, backend, totals=False):
    engine = build_engine(network(), factory, seed=5, backend=backend)
    result = engine.run(10_000, stop_when=AllInformed(engine.protocols), totals=totals)
    return engine, result


@pytest.mark.parametrize(
    ("factory", "reason"),
    [
        (logging_factory, "protocol keeps a per-slot log"),
        (partial_factory, "vector export missing contract fields: parent, rng"),
    ],
)
@pytest.mark.parametrize("backend", ["vector", "vector-replay"])
def test_export_checks_fall_back_with_their_reason(factory, reason, backend):
    engine, result = drive(factory, backend)
    assert not engine.vector_engaged
    assert engine.vector_fallback_reason == reason
    exact_engine, exact_result = drive(factory, "exact")
    assert result == exact_result
    assert engine.fast_path_engaged == exact_engine.fast_path_engaged
    assert engine.slot == exact_engine.slot
    assert [p.parent for p in engine.protocols] == [p.parent for p in exact_engine.protocols]


def final_states(engine):
    """Every protocol's state and node stream after a run."""
    return [
        (
            p.informed,
            p.parent,
            p.informed_slot,
            p.informed_label,
            p.message,
            p.view.rng.getstate(),
        )
        for p in engine.protocols
    ]


@pytest.mark.parametrize(
    "make_factory", [shared_stream_factory, subclass_stream_factory]
)
def test_replay_falls_back_on_streams_it_cannot_batch(make_factory):
    """A shared stream or a ``Random`` subclass takes the exact kernels.

    Replay reorders label draws across nodes, which is exact only for
    distinct plain ``random.Random`` streams; numpy mode draws none of
    them and stays columnar.
    """
    engine, result = drive(make_factory(), "vector-replay")
    assert not engine.vector_engaged
    assert (
        engine.vector_fallback_reason
        == "node streams are not distinct random.Random instances"
    )
    exact_engine, exact_result = drive(make_factory(), "exact")
    assert result == exact_result
    assert final_states(engine) == final_states(exact_engine)
    assert engine.rng.getstate() == exact_engine.rng.getstate()
    assert drive(make_factory(), "vector")[0].vector_engaged


@pytest.mark.parametrize("factory", [logging_factory, partial_factory])
def test_fallback_counts_one_engine_run(factory):
    """A fallback run is one run: every backend's registry snapshot agrees."""
    snapshots = {}
    for backend in BACKEND_NAMES:
        registry = MetricsRegistry()
        count_run(registry, drive(factory, backend, totals=True)[1], protocol="cogcast")
        snapshots[backend] = registry.snapshot()
    runs = snapshots["exact"]["metrics"]["sim_runs"]
    assert [series["value"] for series in runs["series"]] == [1]
    for backend in BACKEND_NAMES:
        assert snapshots[backend] == snapshots["exact"], backend


def test_fallback_after_columnar_run_continues_the_slot_clock():
    """Columnar then fallback on one engine equals two exact runs."""

    def two_runs(backend):
        network = Network.static(shared_core(16, 6, 2, random.Random(3)))
        engine = build_engine(
            network,
            lambda view: CogCast(view, is_source=(view.node_id == 0)),
            seed=3,
            backend=backend,
        )
        first = engine.run(3, stop_when=AllInformed(engine.protocols))
        engaged = getattr(engine, "vector_engaged", False)
        second = engine.run(
            40, stop_when=lambda e: all(p.informed for p in e.protocols)
        )
        return engine, (first, second), engaged

    engine, results, engaged = two_runs("vector-replay")
    assert engaged
    assert engine.vector_fallback_reason == "stop condition has no columnar form"
    exact_engine, exact_results, _ = two_runs("exact")
    assert not results[0].completed and results[1].completed
    assert results == exact_results
    assert engine.slot == exact_engine.slot
    assert [(p.informed_slot, p.parent) for p in engine.protocols] == [
        (p.informed_slot, p.parent) for p in exact_engine.protocols
    ]
    assert engine.rng.getstate() == exact_engine.rng.getstate()
    assert [p.view.rng.getstate() for p in engine.protocols] == [
        p.view.rng.getstate() for p in exact_engine.protocols
    ]


def test_gossip_continues_after_a_columnar_run_cut_by_its_budget():
    """A columnar gossip run out of budget, then a fallback run, equals two exact runs.

    The fallback run starts from the imported ``known`` and
    ``first_heard`` dicts, so their order, the slot clock and every
    stream must be where the exact kernels would have left them.
    """
    sources = {0: "a", 9: "b", 17: "c"}

    def factory(view):
        initial = [sources[view.node_id]] if view.node_id in sources else []
        return GossipCast(view, initial)

    def two_runs(backend):
        engine = build_engine(network(), factory, seed=4, backend=backend)
        first = engine.run(20, stop_when=AllKnow(engine.protocols, sources))
        engaged = getattr(engine, "vector_engaged", False)
        # The cut run learned some messages but not all of them.
        learned = sum(len(p.first_heard) for p in engine.protocols)
        assert 0 < learned < len(engine.protocols) * len(sources) - len(sources)
        second = engine.run(
            10_000,
            stop_when=lambda e: all(len(p.known) == len(sources) for p in e.protocols),
        )
        states = [
            (list(p.known.items()), list(p.first_heard.items()), p.view.rng.getstate())
            for p in engine.protocols
        ]
        return engine, (first, second), engaged, states

    engine, results, engaged, states = two_runs("vector-replay")
    assert engaged
    assert engine.vector_fallback_reason == "stop condition has no columnar form"
    exact_engine, exact_results, _, exact_states = two_runs("exact")
    assert not results[0].completed and results[1].completed
    assert results == exact_results
    assert engine.slot == exact_engine.slot
    assert states == exact_states
    assert engine.rng.getstate() == exact_engine.rng.getstate()
