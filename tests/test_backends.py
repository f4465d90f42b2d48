"""Backend equivalence: the vector columnar engine vs the exact engine.

The vector backend (``repro.sim.backends.vector``) is only allowed to
exist because these tests hold:

- **Tier A** — with ``rng_mode="replay"`` the columnar kernel must be
  bit-identical to the exact engine on every configuration where it
  engages: same ``RunResult``, same final protocol states, same
  messages, same engine and node RNG stream states.  This holds for
  both columnar programs, COGCAST's ``epidemic-broadcast`` and
  ``gossip``, whose broadcasters also draw which message to send.
- **Tier B** — the default numpy RNG mode follows a different (still
  seeded, still replayable) stream, so it is cross-validated
  statistically: completion-slot and collision-count confidence
  intervals must overlap the exact backend's, and the epidemic
  invariants (parent informed before child, completion within the
  Theorem 4 budget) must hold on every vector run.
- **Transparency** — requesting the vector backend never changes
  observable behavior: ineligible configurations fall back to the
  exact engine, recording why, and the ``RunResult`` surface is
  identical across backends.
"""

from __future__ import annotations

import random
import sys
from functools import partial

import pytest

import repro.core.runners
from repro.analysis.stats import mean_confidence_interval
from repro.analysis.theory import cogcast_slot_bound
from repro.assignment import dynamic_shared_core_schedule, identical, shared_core
from repro.core import CogCast, GossipCast, run_gossip, run_local_broadcast
from repro.obs.metrics import MetricsRegistry, count_run
from repro.obs.watchdog import (
    InformedSetWatchdog,
    MediatorUniquenessWatchdog,
    SlotBudgetWatchdog,
)
from repro.sim import ChannelAssignment, DynamicSchedule, EventTrace, Network
from repro.sim.adversary import RandomJammer
from repro.sim.backends import (
    AllInformed,
    AllKnow,
    BACKEND_NAMES,
    BackendUnavailableError,
    VectorEngine,
    available_backends,
    backend_scope,
    default_backend_name,
    numpy_available,
    resolve_backend,
)
from repro.sim.engine import RunResult, build_engine
from repro.sim.protocol import Protocol
from repro.sim.rng import derive_seed

SEEDS = [0, 1, 7, 11, 42]

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def make_network(seed: int, n: int = 24, c: int = 6, k: int = 2) -> Network:
    rng = random.Random(seed)
    plan = shared_core(n, c, k, rng).shuffled_labels(rng)
    return Network.static(plan)


def make_dynamic_network(seed: int, n: int = 24, c: int = 6, k: int = 2) -> Network:
    return Network(dynamic_shared_core_schedule(n, c, k, seed=seed))


def cogcast_factory(view):
    return CogCast(view, is_source=(view.node_id == 0))


def keep_engines(monkeypatch):
    """Make the runners' ``build_engine`` keep every engine it builds."""
    engines = []

    def keeping(*args, **kwargs):
        engines.append(build_engine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(repro.core.runners, "build_engine", keeping)
    return engines


def drive(seed: int, *, backend, network=None, totals=False):
    """One seeded COGCAST run to completion; returns everything observable."""
    engine = build_engine(
        network if network is not None else make_network(seed),
        cogcast_factory,
        seed=seed,
        backend=backend,
    )
    protocols = engine.protocols
    result = engine.run(10_000, stop_when=AllInformed(protocols), totals=totals)
    states = [
        (p.informed, p.parent, p.informed_slot, p.informed_label, p.message)
        for p in protocols
    ]
    node_rng_states = [p.view.rng.getstate() for p in protocols]
    return engine, result, states, node_rng_states


@pytest.mark.parametrize("seed", SEEDS)
def test_randrange_is_getrandbits_with_rejection(seed):
    """Replay's label-draw rule is ``randrange``'s on this interpreter.

    The replay kernel draws ``getrandbits(c.bit_length())`` and redraws
    values ``>= c``, which is how ``random.Random.randrange(c)`` draws;
    Tier A holds only while that stays true.
    """
    reference, rule = random.Random(seed), random.Random(seed)
    for c in range(1, 71):
        bits = c.bit_length()
        for _ in range(20):
            value = rule.getrandbits(bits)
            while value >= c:
                value = rule.getrandbits(bits)
            assert reference.randrange(c) == value, c
    assert reference.getstate() == rule.getstate()


#: Replay shapes beyond the default network, by id: ``(seed, (n, c, k))``.
#: ``c`` = 1 gives every node one channel; at ``c`` = 16 and 64 half of
#: all candidate label draws are redrawn; ``n`` = 300 with ``c - k`` = 12
#: private channels a node has thousands of single-broadcaster channels.
REPLAY_SHAPES = {
    "c1": (0, (12, 1, 1)),
    "c16": (1, (24, 16, 4)),
    "c64": (7, (24, 64, 8)),
    "n300-c16-k4": (11, (300, 16, 4)),
}


def replay_cases(seeds, shapes=tuple(REPLAY_SHAPES)):
    """*seeds* on the default network, then the named *shapes*."""
    return [pytest.param(seed, (24, 6, 2), id=str(seed)) for seed in seeds] + [
        pytest.param(*REPLAY_SHAPES[name], id=name) for name in shapes
    ]


@needs_numpy
class TestTierAReplayBitIdentity:
    @pytest.mark.parametrize(("seed", "shape"), replay_cases(SEEDS))
    def test_static_schedule_identical(self, seed, shape):
        exact = drive(seed, backend="exact", network=make_network(seed, *shape))
        vector = drive(
            seed, backend="vector-replay", network=make_network(seed, *shape)
        )
        assert vector[0].vector_engaged
        assert exact[1] == vector[1]  # RunResult
        assert exact[2] == vector[2]  # protocol states + messages
        assert exact[3] == vector[3]  # every node RNG stream
        assert exact[0].rng.getstate() == vector[0].rng.getstate()

    @pytest.mark.parametrize(("seed", "shape"), replay_cases(SEEDS[:3], ("c1", "c16")))
    def test_dynamic_schedule_identical(self, seed, shape):
        exact = drive(
            seed, backend="exact", network=make_dynamic_network(seed, *shape)
        )
        vector = drive(
            seed, backend="vector-replay", network=make_dynamic_network(seed, *shape)
        )
        assert vector[0].vector_engaged
        assert exact[1] == vector[1]
        assert exact[2] == vector[2]
        assert exact[3] == vector[3]
        assert exact[0].rng.getstate() == vector[0].rng.getstate()

    @pytest.mark.parametrize(("seed", "shape"), replay_cases(SEEDS[:3]))
    def test_metrics_snapshots_identical(self, seed, shape):
        """A registry counts the same run totals either way."""
        snapshots = []
        for backend in ("exact", "vector-replay"):
            registry = MetricsRegistry()
            _, result, _, _ = drive(
                seed, backend=backend, network=make_network(seed, *shape), totals=True
            )
            count_run(registry, result, protocol="cogcast")
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]


def gossip_factory(sources):
    """Nodes of a gossip run; each source originates its one message."""

    def factory(view):
        initial = [sources[view.node_id]] if view.node_id in sources else []
        return GossipCast(view, initial)

    return factory


def drive_gossip(seed, network, sources, *, backend, max_slots=100_000):
    """One seeded gossip run with totals; returns everything observable."""
    engine = build_engine(network, gossip_factory(sources), seed=seed, backend=backend)
    result = engine.run(
        max_slots, stop_when=AllKnow(engine.protocols, sources), totals=True
    )
    return engine, result, gossip_states(engine)


def gossip_states(engine):
    """Every node's ``known`` and ``first_heard`` items in order, every stream."""
    return (
        [
            (list(p.known.items()), list(p.first_heard.items()), p.view.rng.getstate())
            for p in engine.protocols
        ],
        engine.rng.getstate(),
    )


def sources_of(*nodes):
    return {node: f"msg-{node}" for node in nodes}


#: Gossip replay cases, by id: ``(seed, make, sources)``, the network
#: being ``make(seed)``.  The default network carries three sources and
#: one; every node of an n = 6, c = 4 network is a source;
#: ``identical(6, 1)`` gives every node the same one channel.
GOSSIP_STATIC = {
    **{
        f"three-sources-{seed}": (seed, make_network, sources_of(0, 5, 11))
        for seed in SEEDS[:3]
    },
    "one-source": (3, make_network, sources_of(4)),
    "every-node-a-source": (2, partial(make_network, n=6, c=4), sources_of(*range(6))),
    "identical-c1": (3, lambda _: Network.static(identical(6, 1)), sources_of(0, 1)),
    "c16": (1, partial(make_network, c=16, k=4), sources_of(2, 9, 20)),
    "n300-c16-k4": (
        11,
        partial(make_network, n=300, c=16, k=4),
        sources_of(7, 101, 202, 299),
    ),
}

#: Dynamic schedules: a fresh assignment every slot.
GOSSIP_DYNAMIC = {
    **{
        f"three-sources-{seed}": (seed, make_dynamic_network, sources_of(0, 5, 11))
        for seed in SEEDS[:2]
    },
    "c1": (0, partial(make_dynamic_network, n=12, c=1, k=1), sources_of(0, 6)),
    "c16": (1, partial(make_dynamic_network, c=16, k=4), sources_of(2, 9, 20)),
}

GOSSIP_CASE = ("seed", "make", "sources")


@needs_numpy
class TestGossipTierA:
    """``vector-replay`` gossip equals the exact engine draw for draw."""

    @staticmethod
    def check_identical(seed, make, sources):
        exact = drive_gossip(seed, make(seed), sources, backend="exact")
        vector = drive_gossip(seed, make(seed), sources, backend="vector-replay")
        assert vector[0].vector_engaged, vector[0].vector_fallback_reason
        assert exact[1].completed
        assert exact[1] == vector[1]  # RunResult, totals included
        assert exact[2] == vector[2]  # known / first_heard in order, streams

    @pytest.mark.parametrize(GOSSIP_CASE, GOSSIP_STATIC.values(), ids=GOSSIP_STATIC)
    def test_static_schedule_identical(self, seed, make, sources):
        self.check_identical(seed, make, sources)

    @pytest.mark.parametrize(GOSSIP_CASE, GOSSIP_DYNAMIC.values(), ids=GOSSIP_DYNAMIC)
    def test_dynamic_schedule_identical(self, seed, make, sources):
        self.check_identical(seed, make, sources)

    def test_runner_results_identical(self, monkeypatch):
        """``run_gossip`` takes the columnar kernel on ``vector-replay``."""
        engines = keep_engines(monkeypatch)
        results = [
            run_gossip(
                make_network(5), sources_of(1, 8), seed=5, max_slots=5000, backend=backend
            )
            for backend in ("exact", "vector-replay")
        ]
        assert engines[1].vector_engaged
        assert results[0] == results[1]
        assert results[0].completed


def sparse_assignment(seed, relabel=None, n=24, c=6, k=2):
    """Every other node of a ``2n``-node shared core, channels *relabel*-ed.

    Half of the private channels never appear, so the universe has gaps.
    """
    rng = random.Random(seed)
    channels = shared_core(2 * n, c, k, rng).shuffled_labels(rng).channels[::2]
    if relabel is not None:
        channels = tuple(tuple(relabel(channel) for channel in row) for row in channels)
    return ChannelAssignment(channels, overlap=k)


def sparse_static_network(seed, relabel=None):
    return Network.static(sparse_assignment(seed, relabel))


def sparse_dynamic_network(seed, relabel=None):
    """A fresh sparse assignment every slot."""
    return Network(
        DynamicSchedule(
            lambda slot: sparse_assignment(derive_seed(seed, "sparse", slot), relabel)
        )
    )


#: Channel renumberings: none; shifted below zero; spread so far apart
#: that the kernel sorts them instead of marking a presence array.
RELABELS = {
    "sparse": None,
    "negative": lambda channel: channel - 50,
    "spread": lambda channel: (channel - 50) * 10**9,
}


@needs_numpy
class TestChannelMap:
    """The columnar kernel's dense channel ids are ``np.unique``'s."""

    @pytest.mark.parametrize("relabel", RELABELS.values(), ids=RELABELS)
    @pytest.mark.parametrize("make", [sparse_static_network, sparse_dynamic_network])
    def test_dense_ids_equal_unique_inverse(self, make, relabel):
        import numpy as np

        from repro.sim.backends.vector import _dense_channels

        schedule = make(3, relabel).schedule
        for slot in range(4):
            table = np.asarray(schedule.labels_at(slot), dtype=np.int64)
            ids, inverse = np.unique(table, return_inverse=True)
            assert len(ids) < table.max() - table.min() + 1  # the universe has gaps
            dense, count = _dense_channels(np, schedule.labels_at(slot))
            assert count == len(ids)
            assert dense.tolist() == inverse.reshape(table.shape).tolist()

    @pytest.mark.parametrize("relabel", RELABELS.values(), ids=RELABELS)
    @pytest.mark.parametrize("make", [sparse_static_network, sparse_dynamic_network])
    def test_replay_identical_on_a_sparse_universe(self, make, relabel):
        exact = drive(5, backend="exact", network=make(5, relabel))
        vector = drive(5, backend="vector-replay", network=make(5, relabel))
        assert vector[0].vector_engaged
        assert exact[1:] == vector[1:]
        assert exact[0].rng.getstate() == vector[0].rng.getstate()


@needs_numpy
class TestTierBStatistical:
    GRID = [(48, 6, 2), (64, 8, 3)]
    TRIALS = 30

    def completion_slots(self, backend, n, c, k):
        return [
            run_local_broadcast(
                make_network(trial, n=n, c=c, k=k),
                seed=trial,
                max_slots=10_000,
                require_completion=True,
                backend=backend,
            ).slots
            for trial in range(self.TRIALS)
        ]

    @pytest.mark.parametrize("n,c,k", GRID)
    def test_completion_slot_cis_overlap(self, n, c, k):
        _, exact_low, exact_high = mean_confidence_interval(
            [float(s) for s in self.completion_slots("exact", n, c, k)]
        )
        _, vec_low, vec_high = mean_confidence_interval(
            [float(s) for s in self.completion_slots("vector", n, c, k)]
        )
        assert exact_low <= vec_high and vec_low <= exact_high

    @pytest.mark.parametrize("n,c,k", GRID[:1])
    def test_collision_count_cis_overlap(self, n, c, k):
        def collision_samples(backend):
            samples = []
            for trial in range(self.TRIALS):
                registry = MetricsRegistry()
                run_local_broadcast(
                    make_network(trial, n=n, c=c, k=k),
                    seed=trial,
                    max_slots=10_000,
                    require_completion=True,
                    metrics=registry,
                    backend=backend,
                )
                series = (
                    registry.snapshot()["metrics"]
                    .get("sim_collisions", {})
                    .get("series", [])
                )
                samples.append(float(series[0]["value"]) if series else 0.0)
            return samples

        _, exact_low, exact_high = mean_confidence_interval(
            collision_samples("exact")
        )
        _, vec_low, vec_high = mean_confidence_interval(
            collision_samples("vector")
        )
        assert exact_low <= vec_high and vec_low <= exact_high

    @pytest.mark.parametrize("seed", SEEDS)
    def test_epidemic_invariants_hold_on_vector_runs(self, seed):
        """The watchdog invariants, checked post-hoc on columnar state."""
        n, c, k = 48, 6, 2
        engine, result, _, _ = drive(
            seed, backend="vector", network=make_network(seed, n=n, c=c, k=k)
        )
        assert engine.vector_engaged
        assert result.completed
        assert result.slots <= cogcast_slot_bound(n, c, k)
        protocols = engine.protocols
        for node, protocol in enumerate(protocols):
            assert protocol.informed
            if node == 0:
                assert protocol.parent is None
                assert protocol.informed_slot == -1
                continue
            parent = protocols[protocol.parent]
            assert parent.informed_slot < protocol.informed_slot
            assert protocol.message == protocols[0].message

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_watchdogs_clean_under_vector_backend(self, seed, monkeypatch):
        """Run-end watchdogs keep the columnar kernel and stay silent."""
        n, c, k = 48, 6, 2
        budget = SlotBudgetWatchdog()
        informed = InformedSetWatchdog()
        engines = keep_engines(monkeypatch)
        run_local_broadcast(
            make_network(seed, n=n, c=c, k=k),
            seed=seed,
            max_slots=10_000,
            require_completion=True,
            watchdogs=(budget, informed),
            backend="vector",
        )
        [engine] = engines
        assert engine.vector_engaged
        assert budget.anomalies == []
        assert informed.anomalies == []


@needs_numpy
class TestGossipTierB:
    """``vector`` gossip against exact, over 30 seeds of one grid point."""

    N, C, K = 24, 6, 2
    SOURCES = sources_of(0, 7, 13)
    TRIALS = 30

    def runs(self, backend, monkeypatch):
        engines = keep_engines(monkeypatch)
        results = [
            run_gossip(
                make_network(trial, self.N, self.C, self.K),
                self.SOURCES,
                seed=trial,
                max_slots=10_000,
                backend=backend,
            )
            for trial in range(self.TRIALS)
        ]
        return results, engines

    def test_completion_slot_cis_overlap(self, monkeypatch):
        exact, _ = self.runs("exact", monkeypatch)
        vector, engines = self.runs("vector", monkeypatch)
        assert all(engine.vector_engaged for engine in engines)
        _, exact_low, exact_high = mean_confidence_interval(
            [float(result.slots) for result in exact]
        )
        _, vec_low, vec_high = mean_confidence_interval(
            [float(result.slots) for result in vector]
        )
        assert exact_low <= vec_high and vec_low <= exact_high

    def test_coverage_and_first_heard_slots(self, monkeypatch):
        results, engines = self.runs("vector", monkeypatch)
        for result, engine in zip(results, engines):
            assert result.completed
            assert result.coverage == (len(self.SOURCES),) * self.N
            for node, protocol in enumerate(engine.protocols):
                assert set(protocol.known) == set(self.SOURCES)
                assert set(protocol.first_heard) == set(self.SOURCES) - {node}
                slots = protocol.first_heard.values()
                assert all(0 <= slot < result.slots for slot in slots)
                for origin, payload in protocol.known.items():
                    assert payload is engine.protocols[origin].known[origin]


class Opaque(Protocol):
    """A protocol with no columnar program: must force the exact engine."""

    def __init__(self, view):
        self.view = view

    def begin_slot(self, slot):
        from repro.sim.actions import Listen

        return Listen(0)

    def end_slot(self, slot, outcome):
        return None


@needs_numpy
class TestFallbackTransparency:
    def run_vector(self, *, network=None, factory=cogcast_factory, **kwargs):
        engine = build_engine(
            network if network is not None else make_network(0),
            factory,
            seed=0,
            backend="vector",
            **kwargs,
        )
        engine.run(5, stop_when=AllInformed(engine.protocols))
        return engine

    def test_trace_falls_back(self):
        engine = self.run_vector(trace=EventTrace())
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "event trace attached"

    def test_jammer_falls_back(self):
        engine = self.run_vector(
            jammer=RandomJammer(range(6), budget=1, rng=random.Random(0))
        )
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "jamming adversary attached"

    def test_unknown_protocol_falls_back(self):
        engine = build_engine(
            make_network(0), Opaque, seed=0, backend="vector"
        )
        engine.run(5)
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "protocol has no columnar program"

    def test_opaque_stop_condition_falls_back(self):
        engine = build_engine(
            make_network(0), cogcast_factory, seed=0, backend="vector"
        )
        protocols = engine.protocols
        engine.run(5, stop_when=lambda _: all(p.informed for p in protocols))
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "stop condition has no columnar form"

    def test_opaque_gossip_stop_condition_falls_back(self):
        engine = build_engine(
            make_network(0), gossip_factory(sources_of(0, 3)), seed=0, backend="vector"
        )
        protocols = engine.protocols
        engine.run(5, stop_when=lambda _: all(len(p.known) == 2 for p in protocols))
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "stop condition has no columnar form"

    @pytest.mark.parametrize("program", ["epidemic-broadcast", "gossip"])
    def test_other_programs_stop_condition_falls_back(self, program):
        """A stop condition is columnar only for the program that tags it.

        The exact kernels then evaluate it as they would on the exact
        backend, and it reads an attribute these protocols lack.
        """
        if program == "gossip":
            factory, stop = gossip_factory(sources_of(0)), AllInformed
        else:
            factory, stop = cogcast_factory, lambda protocols: AllKnow(protocols, [0])
        engine = build_engine(make_network(0), factory, seed=0, backend="vector")
        with pytest.raises(AttributeError):
            engine.run(5, stop_when=stop(engine.protocols))
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "stop condition has no columnar form"

    def test_mixed_programs_fall_back(self):
        def mixed(view):
            if view.node_id % 2:
                return GossipCast(view, ["odd"] if view.node_id == 1 else [])
            return cogcast_factory(view)

        engine = build_engine(make_network(0), mixed, seed=0, backend="vector-replay")
        result = engine.run(5)
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "protocols mix columnar programs"
        assert result == build_engine(make_network(0), mixed, seed=0).run(5)

    def test_per_slot_probe_falls_back(self):
        # The mediator watchdog is a per-event sink: it rides the trace.
        engine = self.run_vector(trace=MediatorUniquenessWatchdog())
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == "event trace attached"

    def test_fallback_matches_exact_bit_for_bit(self):
        """A traced vector-backend run IS a traced exact run."""
        trace_exact, trace_vector = EventTrace(), EventTrace()
        vec_engine = build_engine(
            make_network(3),
            cogcast_factory,
            seed=3,
            trace=trace_vector,
            backend="vector",
        )
        vec_result = vec_engine.run(
            10_000, stop_when=AllInformed(vec_engine.protocols)
        )
        exact_engine = build_engine(
            make_network(3), cogcast_factory, seed=3, trace=trace_exact
        )
        exact_result = exact_engine.run(
            10_000, stop_when=AllInformed(exact_engine.protocols)
        )
        assert not vec_engine.vector_engaged
        assert vec_result == exact_result
        assert list(trace_vector.events) == list(trace_exact.events)


class TestBackendSelection:
    def test_registry_names(self):
        assert BACKEND_NAMES == ("exact", "vector", "vector-replay")
        assert set(available_backends()) == set(BACKEND_NAMES)

    def test_unknown_backend_rejected(self):
        # A backend is a name: an object that is not one is refused like
        # an unknown name, by the resolver, the engine builder and a runner.
        for backend in ("columnar", object(), ["exact"], 0):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(backend)
            with pytest.raises(ValueError, match="unknown backend"):
                build_engine(make_network(0), cogcast_factory, backend=backend)
            with pytest.raises(ValueError, match="unknown backend"):
                run_local_broadcast(make_network(0), max_slots=10, backend=backend)

    def test_resolve_returns_a_name(self):
        assert resolve_backend("exact") == "exact"
        assert resolve_backend("vector-replay") == "vector-replay"
        assert resolve_backend(None) == default_backend_name()
        with backend_scope("vector"):
            assert resolve_backend(None) == "vector"

    def test_backend_scope_restores_default(self):
        before = default_backend_name()
        with backend_scope("vector-replay"):
            assert default_backend_name() == "vector-replay"
        assert default_backend_name() == before
        with backend_scope(None):  # no-op scope
            assert default_backend_name() == before
        assert default_backend_name() == before

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_run_result_schema_is_backend_invariant(self, backend):
        if backend != "exact" and not numpy_available():
            pytest.skip("numpy not installed")
        engine = build_engine(
            make_network(5), cogcast_factory, seed=5, backend=backend
        )
        result = engine.run(10_000, stop_when=AllInformed(engine.protocols))
        assert isinstance(result, RunResult)
        assert type(result.slots) is int
        assert type(result.completed) is bool
        assert type(result.all_done) is bool
        broadcast = run_local_broadcast(
            make_network(5), seed=5, max_slots=10_000, backend=backend
        )
        assert all(
            isinstance(slot, int) for slot in broadcast.informed_slots
        )
        assert all(
            parent is None or isinstance(parent, int)
            for parent in broadcast.parents
        )

    def test_missing_numpy_raises_actionable_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        for backend in ("vector", "vector-replay"):
            with pytest.raises(
                BackendUnavailableError, match="pip install 'repro\\[perf\\]'"
            ):
                build_engine(make_network(0), cogcast_factory, backend=backend)
        assert available_backends() == {
            "exact": None,
            "vector": "numpy is not installed (pip install 'repro[perf]')",
            "vector-replay": "numpy is not installed (pip install 'repro[perf]')",
        }

    def test_invalid_rng_mode_rejected(self):
        network = make_network(0)
        with pytest.raises(ValueError, match="rng_mode"):
            VectorEngine(network, _protocols_for(network), rng_mode="exotic")


def _protocols_for(network: Network):
    from repro.sim.engine import make_views

    return [cogcast_factory(view) for view in make_views(network, seed=0)]
