"""The one anomaly-to-run join, shared by ``obs ingest`` and ``obs explain``.

:func:`repro.obs.store.group_runs` pairs each primary record with the
anomalies that follow it.  The runners write a run's anomalies right
after its record, so on their files any sensible rule agrees; these
tests pin the rule on a concatenated file where a seed-based rule
would not: run seed 0, run seed 1, then an anomaly with seed 0.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.assignment import shared_core
from repro.core.runners import run_local_broadcast
from repro.obs.cli import main as obs_main
from repro.obs.query import explain_records
from repro.obs.store import RunStore, group_runs
from repro.obs.telemetry import TelemetrySink, read_telemetry
from repro.obs.watchdog import SlotBudgetWatchdog
from repro.sim.channels import Network


class _ListSink:
    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(dict(record))


def _runner_records(seed: int, *, watchdog: bool) -> list[dict]:
    """What one COGCAST run writes: its record, then any anomalies."""
    sink = _ListSink()
    run_local_broadcast(
        Network.static(shared_core(8, 6, 2, random.Random(seed))),
        seed=seed,
        max_slots=200,
        watchdogs=[SlotBudgetWatchdog(budget=1)] if watchdog else [],
        telemetry=sink,
    )
    return sink.records


def _disagreement_file(path) -> list[dict]:
    """Run seed 0, run seed 1, then the seed-0 run's anomaly."""
    run_0, anomaly_0 = _runner_records(0, watchdog=True)
    (run_1,) = _runner_records(1, watchdog=False)
    with TelemetrySink(path) as sink:
        for record in (run_0, run_1, anomaly_0):
            sink.emit(record)
    return read_telemetry(path)


def test_group_runs_pairs_each_primary_record_with_the_anomalies_after_it():
    anomaly = {"kind": "anomaly", "seed": 0}
    run_a = {"kind": "run", "seed": 0}
    point = {"kind": "campaign", "seed": 0}
    table = {"kind": "experiment", "seed": 1}
    records = [anomaly, run_a, anomaly, anomaly, point, table, anomaly]
    assert group_runs(records) == [
        (None, [anomaly]),
        (run_a, [anomaly, anomaly]),
        (point, []),
        (table, [anomaly]),
    ]
    assert group_runs([]) == []


def test_explain_names_the_run_whose_stored_object_holds_each_anomaly(tmp_path):
    path = tmp_path / "joined.jsonl"
    records = _disagreement_file(path)
    store = RunStore(tmp_path / "store")
    report = store.ingest([path])
    assert (report.ingested, report.anomalies_attached) == (2, 1)
    holders = []
    for entry in store.entries():
        stored = store.load(entry["run_id"])
        holders.extend((anomaly, stored["record"]) for anomaly in stored["anomalies"])
    assert [run["seed"] for _, run in holders] == [1]
    text, code = explain_records(records)
    assert code == 0
    sections = text.split("\n\n")
    assert len(sections) == len(holders)
    for section, (anomaly, run) in zip(sections, holders):
        assert section.startswith(f"anomaly [slot-budget] seed={anomaly['seed']} ")
        assert f"\n  run: cogcast seed={run['seed']} n=8 slots={run['slots']} " in section


def test_explain_cli_follows_the_store_rule(tmp_path, capsys):
    path = tmp_path / "joined.jsonl"
    _disagreement_file(path)
    assert obs_main(["explain", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("anomaly [slot-budget] seed=0 ")
    assert "\n  run: cogcast seed=1 " in out


def test_explain_rejects_a_negative_index(capsys):
    """``--index`` counts from the first anomaly; a negative one is a usage error."""
    path = Path(__file__).parent / "data" / "obs" / "runs.jsonl"
    records = read_telemetry(path, strict=False)
    assert explain_records(records, index=1)[1] == 0
    with pytest.raises(ValueError):
        explain_records(records, index=-1)
    for index in ("-1", "-2"):
        with pytest.raises(SystemExit) as exit_info:
            obs_main(["explain", str(path), "--index", index])
        assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
