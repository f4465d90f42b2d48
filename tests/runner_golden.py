"""Golden telemetry records for every protocol runner.

:func:`golden_cases` runs each of the seven runners in
:mod:`repro.core.runners` and :mod:`repro.baselines.runners` on the
``exact`` and ``vector-replay`` backends with three instrument sets:

- ``telemetry`` — a sink only, so the fast kernel stays engaged;
- ``metrics`` — a sink plus a :class:`~repro.obs.metrics.MetricsRegistry`,
  the shape the benchmark uses, so the fast or columnar kernel stays
  engaged;
- ``all`` — every instrument the runner accepts (a bare
  :class:`~repro.obs.probe.SlotProbe` as ``probe``, spans, a budget-1
  :class:`~repro.obs.watchdog.SlotBudgetWatchdog`, metrics, resources),
  so ``probe=`` composition and anomaly records are covered too.

plus one COGCAST run whose ``require_completion`` raises after the
record is written.  Every emitted record is stripped of the fields that
vary between runs or checkouts (:func:`strip_volatile`) and compared
byte for byte with ``tests/data/runner_records.jsonl``.  The ``vector``
backend is left out: its random numbers come from numpy.

Regenerate the fixture (only when a record change is intended) with::

    PYTHONPATH=src python -m tests.runner_golden
"""

from __future__ import annotations

import inspect
import io
import json
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.assignment import shared_core
from repro.baselines.runners import (
    run_hopping_together,
    run_rendezvous_aggregation,
    run_rendezvous_broadcast,
    run_stay_and_scan_broadcast,
)
from repro.core.runners import run_data_aggregation, run_gossip, run_local_broadcast
from repro.obs import (
    MetricsRegistry,
    ResourceSampler,
    SlotBudgetWatchdog,
    SlotProbe,
    SpanProbe,
    TelemetrySink,
)
from repro.sim.channels import Network
from repro.sim.rng import derive_rng
from repro.types import SimulationError

FIXTURE = Path(__file__).parent / "data" / "runner_records.jsonl"

BACKENDS = ("exact", "vector-replay")
INSTRUMENT_SETS = ("telemetry", "metrics", "all")


def _network() -> Network:
    rng = derive_rng(3, "test-obs-network")
    return Network.static(shared_core(12, 6, 2, rng).shuffled_labels(rng))


def _runners(network: Network) -> dict[str, tuple[Callable[..., Any], tuple, dict]]:
    """Runner name -> (runner, positional args, keyword args)."""
    values = list(range(network.num_nodes))
    return {
        "cogcast": (run_local_broadcast, (network,), {"max_slots": 5000}),
        "cogcomp": (run_data_aggregation, (network, values), {}),
        "gossip": (run_gossip, (network, {0: "a", 1: "b"}), {"max_slots": 5000}),
        "rendezvous-broadcast": (
            run_rendezvous_broadcast, (network,), {"max_slots": 50_000}
        ),
        "stay-and-scan": (run_stay_and_scan_broadcast, (network,), {}),
        "rendezvous-aggregation": (
            run_rendezvous_aggregation, (network, values), {"max_slots": 50_000}
        ),
        "hopping-together": (
            run_hopping_together, (network.assignment_at(0),), {"max_slots": 50_000}
        ),
    }


def _instruments(runner: Callable[..., Any], instrument_set: str) -> dict[str, Any]:
    """The keyword instruments of one set that *runner* accepts."""
    if instrument_set == "telemetry":
        return {}
    if instrument_set == "metrics":
        return {"metrics": MetricsRegistry()}
    every = {
        "probe": SlotProbe(),
        "spans": SpanProbe(),
        "watchdogs": [SlotBudgetWatchdog(budget=1)],
        "metrics": MetricsRegistry(),
        "resources": ResourceSampler().start(),
    }
    accepted = inspect.signature(runner).parameters
    return {name: value for name, value in every.items() if name in accepted}


def strip_volatile(record: dict[str, Any]) -> dict[str, Any]:
    """Drop the fields that vary between runs: times, resources, code version."""
    record = json.loads(json.dumps(record))
    record.pop("elapsed_s", None)
    if "resources" in record:
        record["resources"] = {name: None for name in record["resources"]}
    record.get("provenance", {}).pop("code_version", None)
    return record


def _capture(run: Callable[[TelemetrySink], Any]) -> list[str]:
    handle = io.StringIO()
    run(TelemetrySink(handle))
    return [
        json.dumps(strip_volatile(json.loads(line)), sort_keys=True)
        for line in handle.getvalue().splitlines()
    ]


def _require_completion(sink: TelemetrySink) -> None:
    try:
        run_local_broadcast(
            _network(), seed=1, max_slots=1, require_completion=True, telemetry=sink
        )
    except SimulationError:
        return
    raise AssertionError("require_completion did not raise")


def case_ids() -> list[str]:
    """Every golden case id, in fixture order."""
    ids = [
        f"{name}/{backend}/{instrument_set}"
        for name in _runners(_network())
        for backend in BACKENDS
        for instrument_set in INSTRUMENT_SETS
    ]
    return ids + ["cogcast/exact/require-completion"]


def capture_case(case_id: str) -> list[str]:
    """Run one golden case; return its stripped records as JSON strings."""
    if case_id == "cogcast/exact/require-completion":
        return _capture(_require_completion)
    name, backend, instrument_set = case_id.split("/")
    runner, args, kwargs = _runners(_network())[name]
    instruments = _instruments(runner, instrument_set)
    return _capture(
        lambda sink: runner(
            *args, seed=1, backend=backend, telemetry=sink, **kwargs, **instruments
        )
    )


def golden_cases() -> Iterator[tuple[str, list[str]]]:
    """``(case id, stripped records)`` for every case, in fixture order."""
    for case_id in case_ids():
        yield case_id, capture_case(case_id)


def load_fixture() -> dict[str, list[str]]:
    """The committed fixture: case id -> stripped records as JSON strings."""
    cases: dict[str, list[str]] = {}
    with open(FIXTURE, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            cases[entry["case"]] = [
                json.dumps(record, sort_keys=True) for record in entry["records"]
            ]
    return cases


def write_fixture() -> None:
    """Regenerate ``tests/data/runner_records.jsonl`` from the current code."""
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        for case_id, records in golden_cases():
            entry = {"case": case_id, "records": [json.loads(r) for r in records]}
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


if __name__ == "__main__":  # pragma: no cover
    write_fixture()
