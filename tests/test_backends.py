"""Backend equivalence: the vector columnar engine vs the exact engine.

The vector backend (``repro.sim.backends.vector``) is only allowed to
exist because these tests hold:

- **Tier A** — with ``rng_mode="replay"`` the columnar kernel must be
  bit-identical to the exact engine on every configuration where it
  engages: same ``RunResult``, same final protocol states, same
  messages, same engine and node RNG stream states.
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

import pytest

from repro.analysis.stats import mean_confidence_interval
from repro.analysis.theory import cogcast_slot_bound
from repro.assignment import dynamic_shared_core_schedule, shared_core
from repro.core import CogCast, run_local_broadcast
from repro.obs.metrics import MetricsProbe, MetricsRegistry
from repro.obs.watchdog import InformedSetWatchdog, SlotBudgetWatchdog
from repro.sim import EventTrace, Network
from repro.sim.adversary import RandomJammer
from repro.sim.backends import (
    AllInformed,
    BACKEND_NAMES,
    BackendUnavailableError,
    VectorBackend,
    available_backends,
    backend_scope,
    default_backend_name,
    get_backend,
    numpy_available,
    resolve_backend,
)
from repro.sim.engine import RunResult, build_engine
from repro.sim.protocol import Protocol

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


def drive(seed: int, *, backend, network=None, probe=None):
    """One seeded COGCAST run to completion; returns everything observable."""
    engine = build_engine(
        network if network is not None else make_network(seed),
        cogcast_factory,
        seed=seed,
        probe=probe,
        backend=backend,
    )
    protocols = engine.protocols
    result = engine.run(10_000, stop_when=AllInformed(protocols))
    states = [
        (p.informed, p.parent, p.informed_slot, p.informed_label, p.message)
        for p in protocols
    ]
    node_rng_states = [p.view.rng.getstate() for p in protocols]
    return engine, result, states, node_rng_states


@needs_numpy
class TestTierAReplayBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_static_schedule_identical(self, seed):
        exact = drive(seed, backend="exact")
        vector = drive(seed, backend="vector-replay")
        assert vector[0].vector_engaged
        assert exact[1] == vector[1]  # RunResult
        assert exact[2] == vector[2]  # protocol states + messages
        assert exact[3] == vector[3]  # every node RNG stream
        assert exact[0].rng.getstate() == vector[0].rng.getstate()

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_dynamic_schedule_identical(self, seed):
        exact = drive(seed, backend="exact", network=make_dynamic_network(seed))
        vector = drive(
            seed, backend="vector-replay", network=make_dynamic_network(seed)
        )
        assert vector[0].vector_engaged
        assert exact[1] == vector[1]
        assert exact[2] == vector[2]
        assert exact[3] == vector[3]
        assert exact[0].rng.getstate() == vector[0].rng.getstate()

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_metrics_snapshots_identical(self, seed):
        """Aggregate-feed probes see the same counters either way."""
        snapshots = []
        for backend in ("exact", "vector-replay"):
            registry = MetricsRegistry()
            drive(seed, backend=backend, probe=MetricsProbe(registry))
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]


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
    def test_watchdogs_clean_under_vector_backend(self, seed):
        """Per-slot watchdogs force the exact kernel and stay silent."""
        n, c, k = 48, 6, 2
        budget = SlotBudgetWatchdog()
        informed = InformedSetWatchdog(source=0)
        run_local_broadcast(
            make_network(seed, n=n, c=c, k=k),
            seed=seed,
            max_slots=10_000,
            require_completion=True,
            watchdogs=(budget, informed),
            backend="vector",
        )
        assert budget.anomalies == []
        assert informed.anomalies == []


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

    def test_per_slot_probe_falls_back(self):
        engine = self.run_vector(probe=InformedSetWatchdog(source=0))
        assert not engine.vector_engaged
        assert engine.vector_fallback_reason == (
            "probe without aggregate (on_run_totals) support"
        )

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
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("columnar")

    def test_resolve_accepts_name_instance_and_none(self):
        assert resolve_backend("exact").name == "exact"
        backend = VectorBackend()
        assert resolve_backend(backend) is backend
        assert resolve_backend(None).name == default_backend_name()

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
        network = make_network(0)
        with pytest.raises(
            BackendUnavailableError, match="pip install 'repro\\[perf\\]'"
        ):
            VectorBackend().build(network, _protocols_for(network))

    def test_invalid_rng_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_mode"):
            VectorBackend(rng_mode="exotic")


def _protocols_for(network: Network):
    from repro.sim.engine import make_views

    return [cogcast_factory(view) for view in make_views(network, seed=0)]
