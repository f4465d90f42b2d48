"""Benchmarks for the engine backends: exact vs vector columnar kernel.

``test_backend_exact_n10000`` vs ``test_backend_vector_n10000`` time the
SAME workload — one seeded, uninstrumented, static-assignment COGCAST
run at ``n = 10^4`` driven to completion — through the exact engine's
fast path and through the numpy columnar kernel; the ratio of their
means is the vector speedup recorded in ``BENCH_*.json`` (acceptance
floor: 10x).  ``test_backend_vector_n*`` sweep the columnar kernel from
``n = 10^2`` to ``n = 10^5`` so the trajectory shows how the speedup
scales with population size.  Engine construction happens in untimed
setup, so the numbers isolate ``run()``: set-up also reads every node's
``view.rng``, which seeds the streams a view otherwise seeds at its
first draw, so the exact and replay rounds do not time the seeding that
a ``vector`` run never does.

The vector benchmarks skip cleanly when numpy is not installed (the
``perf`` extra); the exact benchmarks always run.
"""

from __future__ import annotations

import pytest

from repro.assignment import shared_core
from repro.core.cogcast import CogCast
from repro.sim import Network
from repro.sim.backends import AllInformed, numpy_available
from repro.sim.engine import build_engine
from repro.sim.rng import derive_rng

C, K = 16, 4
HEADLINE_N = 10_000
SWEEP_NS = (100, 1_000, 10_000, 100_000)

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def _build(n: int, backend: str, seed: int = 0):
    rng = derive_rng(seed, "assignment")
    assignment = shared_core(n, C, K, rng).shuffled_labels(rng)
    network = Network.static(assignment, validate=False)
    engine = build_engine(
        network,
        lambda view: CogCast(view, is_source=(view.node_id == 0)),
        seed=seed,
        backend=backend,
    )
    for protocol in engine.protocols:
        protocol.view.rng  # seed the node's stream here, untimed
    return engine


def _drive(engine) -> int:
    protocols = engine.protocols
    result = engine.run(100_000, stop_when=AllInformed(protocols))
    assert result.completed
    return result.slots


def test_backend_exact_n10000(benchmark):
    slots = benchmark.pedantic(
        _drive,
        setup=lambda: ((_build(HEADLINE_N, "exact"),), {}),
        rounds=3,
        warmup_rounds=1,
    )
    assert slots > 0


@needs_numpy
def test_backend_vector_n10000(benchmark):
    slots = benchmark.pedantic(
        _drive,
        setup=lambda: ((_build(HEADLINE_N, "vector"),), {}),
        rounds=5,
        warmup_rounds=1,
    )
    assert slots > 0


@needs_numpy
def test_backend_vector_replay_n10000(benchmark):
    """Tier-A mode: bit-exact draws through the columnar kernel."""
    slots = benchmark.pedantic(
        _drive,
        setup=lambda: ((_build(HEADLINE_N, "vector-replay"),), {}),
        rounds=3,
        warmup_rounds=1,
    )
    assert slots > 0


@needs_numpy
@pytest.mark.parametrize("n", SWEEP_NS, ids=[f"n{n}" for n in SWEEP_NS])
def test_backend_vector_sweep(benchmark, n):
    rounds = 2 if n >= 100_000 else 3
    slots = benchmark.pedantic(
        _drive,
        setup=lambda: ((_build(n, "vector"),), {}),
        rounds=rounds,
        warmup_rounds=1,
    )
    assert slots > 0


@needs_numpy
def test_vector_engages_and_matches():
    """Not a timing: the benchmarked kernels must agree.

    The replay kernel must be bit-identical to the exact engine; the
    numpy kernel must at least complete with the same informed set.
    """
    n = 1_000
    exact = _build(n, "exact")
    replay = _build(n, "vector-replay")
    vector = _build(n, "vector")
    exact_slots = _drive(exact)
    assert _drive(replay) == exact_slots
    assert _drive(vector) > 0
    assert replay.vector_engaged and vector.vector_engaged
    exact_states = [
        (p.informed, p.parent, p.informed_slot) for p in exact.protocols
    ]
    replay_states = [
        (p.informed, p.parent, p.informed_slot) for p in replay.protocols
    ]
    assert exact_states == replay_states
    assert all(p.informed for p in vector.protocols)
