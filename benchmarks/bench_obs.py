"""Benchmarks for the observability subsystem: instrument overhead.

The ``repro.obs`` design promise is that an unattached probe costs the
engine one ``is None`` check per hook site.  These benchmarks time the
same seeded COGCAST run bare, with the streaming counter a runner
attaches for ``metrics=`` (which keeps the fast kernel), and with spans
plus metrics (which take the general kernel), so a hot-path regression
shows up as a ratio between adjacent rows of
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import io
import json
import random

from repro import assignment, sim
from repro.core import run_local_broadcast
from repro.obs import MetricsRegistry, SpanProbe, TelemetrySink

SEED = 5
MAX_SLOTS = 2_000
ROUNDS = 5


def _network() -> sim.Network:
    """A mid-size shared-core instance, identical across benchmarks."""
    rng = random.Random(11)
    plan = assignment.shared_core(n=48, c=12, k=3, rng=rng).shuffled_labels(rng)
    return sim.Network.static(plan)


def test_broadcast_bare(benchmark):
    network = _network()
    result = benchmark.pedantic(
        lambda: run_local_broadcast(network, seed=SEED, max_slots=MAX_SLOTS),
        rounds=ROUNDS,
        iterations=1,
    )
    assert result.completed


def test_broadcast_metrics(benchmark):
    network = _network()

    def run():
        registry = MetricsRegistry()
        result = run_local_broadcast(
            network, seed=SEED, max_slots=MAX_SLOTS, metrics=registry
        )
        return result, registry

    result, registry = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    # The probe observes without perturbing: same run, counted slots.
    assert result.completed
    slots = registry.counter("sim_slots", "slots executed", labels=("protocol",))
    assert slots.value(protocol="cogcast") == result.slots
    # ... and leaves the fast kernel engaged, as the run record shows.
    handle = io.StringIO()
    run_local_broadcast(
        network,
        seed=SEED,
        max_slots=MAX_SLOTS,
        metrics=MetricsRegistry(),
        telemetry=TelemetrySink(handle),
    )
    assert json.loads(handle.getvalue())["fast_path"] is True


def test_broadcast_full_instrumentation(benchmark):
    network = _network()

    def run():
        spans, registry = SpanProbe(), MetricsRegistry()
        result = run_local_broadcast(
            network, seed=SEED, max_slots=MAX_SLOTS, spans=spans, metrics=registry
        )
        return result, spans, registry

    result, spans, registry = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.completed
    assert len(spans.informed) == result.informed_count
    slots = registry.counter("sim_slots", "slots executed", labels=("protocol",))
    assert slots.value(protocol="cogcast") == result.slots
