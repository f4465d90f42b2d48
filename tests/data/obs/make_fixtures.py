"""Write the telemetry fixtures behind ``tests/test_obs_golden.py``.

Run once from the repository root::

    PYTHONPATH=src python tests/data/obs/make_fixtures.py

The files are committed, and the golden outputs in ``golden/`` were
captured from them.  Re-running rewrites the timing fields
(``elapsed_s``, ``resources``, timing metrics), so the golden outputs
must be recaptured with ``REPRO_GOLDEN_UPDATE=1`` afterwards.

- ``runs.jsonl``: two COGCAST runs with spans, a slot-budget watchdog
  and metrics (each followed by its anomaly), a COGCOMP run, an
  experiment record, and two campaign points with metrics.
- ``second.jsonl``: the COGCAST seed-1 run again (a deduplication on
  ingest) and a new seed-2 run, for ``diff`` against ``runs.jsonl``.
- ``malformed.jsonl``: a non-JSON line and an invalid record between
  two valid runs.
- ``orphans.jsonl``: an anomaly with no primary record before it, then
  an unstamped run record followed by its anomaly.
- ``empty.jsonl``: no records at all.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import repro.obs.provenance as provenance
from repro.assignment import shared_core
from repro.core.runners import run_data_aggregation, run_local_broadcast
from repro.experiments.campaign import Campaign
from repro.experiments.harness import run_with_telemetry
from repro.experiments.registry import get as get_experiment
from repro.obs import MetricsRegistry, SlotBudgetWatchdog, SpanProbe
from repro.obs.telemetry import TelemetrySink
from repro.sim.channels import Network

HERE = Path(__file__).resolve().parent

#: Code version stamped into every fixture record, so the fixtures do
#: not depend on the commit that wrote them.
FIXTURE_CODE_VERSION = "fixture"


class _ListSink:
    """Collects emitted records in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(dict(record))


def _network(seed: int) -> Network:
    return Network.static(shared_core(8, 6, 2, random.Random(seed)))


def _cogcast(sink, seed: int, *, budget: int = 3) -> None:
    """One instrumented COGCAST run: its record, then its anomaly."""
    run_local_broadcast(
        _network(seed),
        seed=seed,
        max_slots=200,
        spans=SpanProbe(),
        watchdogs=[SlotBudgetWatchdog(budget=budget)],
        metrics=MetricsRegistry(),
        telemetry=sink,
    )


def _measure(point: dict, seed: int) -> float:
    """A cheap deterministic campaign measurement."""
    return float(point["n"] + seed % 5)


def _write(name: str, records: list[dict]) -> None:
    path = HERE / name
    path.unlink(missing_ok=True)
    with TelemetrySink(path) as sink:
        for record in records:
            sink.emit(record)


def main() -> None:
    """Write every fixture file next to this script."""
    provenance.CODE_VERSION = FIXTURE_CODE_VERSION

    runs = _ListSink()
    _cogcast(runs, 0)
    _cogcast(runs, 1)
    run_data_aggregation(
        _network(0),
        [float(node + 1) for node in range(8)],
        seed=0,
        metrics=MetricsRegistry(),
        telemetry=runs,
    )
    run_with_telemetry(get_experiment("E01"), runs, trials=2, seed=0, fast=True)
    Campaign(name="golden", measure=_measure).run(
        [{"n": 8}, {"n": 12}],
        trials=2,
        seed=0,
        telemetry=runs,
        metrics=MetricsRegistry(),
    )
    _write("runs.jsonl", runs.records)

    second = _ListSink()
    _cogcast(second, 1)
    _cogcast(second, 2, budget=2)
    _write("second.jsonl", second.records)

    plain = _ListSink()
    for seed in (3, 4):
        run_local_broadcast(_network(seed), seed=seed, max_slots=200, telemetry=plain)
    first, last = (json.dumps(record, sort_keys=True) for record in plain.records)
    invalid = json.dumps({"schema": 1, "kind": "run", "seed": 0, "protocol": 7})
    (HERE / "malformed.jsonl").write_text(
        "\n".join([first, "not json {", "", invalid, last]) + "\n",
        encoding="utf-8",
    )

    orphans = _ListSink()
    _cogcast(orphans, 5)
    _cogcast(orphans, 6)
    run_5, anomaly_5, run_6, anomaly_6 = orphans.records
    del run_5["provenance"]
    _write("orphans.jsonl", [anomaly_6, run_5, anomaly_5])

    (HERE / "empty.jsonl").write_text("", encoding="utf-8")


if __name__ == "__main__":
    main()
