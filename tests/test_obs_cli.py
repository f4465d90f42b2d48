"""Tests for the telemetry CLI surfaces.

Covers the standalone ``repro-obs`` entry point, the ``python -m repro
obs`` subcommand, and the ``--telemetry`` flag on ``run``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.obs.cli import main as obs_main
from repro.obs.telemetry import TelemetrySink, read_telemetry, run_record
from repro.sim.channels import Network
from repro.assignment import shared_core
from repro.sim.rng import derive_rng


@pytest.fixture
def telemetry_file(tmp_path):
    rng = derive_rng(1, "test-obs-cli")
    network = Network.static(shared_core(8, 6, 2, rng))
    path = tmp_path / "telemetry.jsonl"
    with TelemetrySink(path) as sink:
        for seed in range(4):
            sink.emit(
                run_record(
                    protocol="cogcast",
                    seed=seed,
                    network=network,
                    slots=12 + seed,
                    outcome="completed" if seed % 2 == 0 else "budget",
                )
            )
    return path


class TestObsMain:
    def test_validate_clean(self, telemetry_file, capsys):
        assert obs_main(["validate", str(telemetry_file)]) == 0
        assert "4 records valid" in capsys.readouterr().out

    def test_validate_flags_problems(self, telemetry_file, capsys):
        with open(telemetry_file, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"schema": 1, "kind": "run"}) + "\n")
        assert obs_main(["validate", str(telemetry_file)]) == 1
        out = capsys.readouterr().out
        assert "not valid JSON" in out
        assert f"{telemetry_file}:6" in out

    def test_validate_missing_file(self, tmp_path, capsys):
        assert obs_main(["validate", str(tmp_path / "absent.jsonl")]) == 1

    def test_summary(self, telemetry_file, capsys):
        assert obs_main(["summary", str(telemetry_file)]) == 0
        out = capsys.readouterr().out
        assert "cogcast: 4 runs" in out
        assert "2 budget" in out and "2 completed" in out

    def test_tail_limit(self, telemetry_file, capsys):
        assert obs_main(["tail", str(telemetry_file), "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seed"] for line in lines] == [2, 3]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            obs_main([])

    def test_summary_of_empty_file_fails_with_message(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_main(["summary", str(empty)]) == 1
        out = capsys.readouterr().out
        assert out == f"no telemetry records in {empty}\n"

    def test_tail_of_empty_file_fails_with_message(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n\n")  # blank lines only: still no records
        assert obs_main(["tail", str(empty)]) == 1
        assert "no telemetry records" in capsys.readouterr().out

    def test_summary_of_missing_file_fails(self, tmp_path, capsys):
        assert obs_main(["summary", str(tmp_path / "absent.jsonl")]) == 1
        assert capsys.readouterr().err != ""


class TestAnomaliesSubcommand:
    def _anomaly(self, seed=3):
        from repro.obs.telemetry import anomaly_record

        return anomaly_record(
            rule="mediator-unique",
            seed=seed,
            slot=189,
            message="channel 0 has 2 distinct mediator announcers",
            protocol="cogcomp",
            detail={"channel": 0, "announcers": [1, 4]},
        )

    def test_clean_file_passes(self, telemetry_file, capsys):
        assert obs_main(["anomalies", str(telemetry_file)]) == 0
        assert "no anomalies in 4 records" in capsys.readouterr().out

    def test_anomalies_fail_and_print(self, telemetry_file, capsys):
        with TelemetrySink(telemetry_file) as sink:
            sink.emit(self._anomaly())
        assert obs_main(["anomalies", str(telemetry_file)]) == 1
        out = capsys.readouterr().out
        assert "[mediator-unique] seed=3 protocol=cogcomp slot=189:" in out
        assert "1 anomalies in 5 records" in out

    def test_empty_or_missing_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_main(["anomalies", str(empty)]) == 1
        assert obs_main(["anomalies", str(tmp_path / "absent.jsonl")]) == 1

    def test_via_main_cli(self, telemetry_file, capsys):
        assert repro_main(["obs", "anomalies", str(telemetry_file)]) == 0


class TestExportTrace:
    def test_cogcomp_trace_round_trips(self, tmp_path, capsys):
        from repro.obs.export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        spans_path = tmp_path / "spans.json"
        assert (
            obs_main(
                [
                    "export-trace",
                    "--protocol",
                    "cogcomp",
                    "--n",
                    "8",
                    "--c",
                    "6",
                    "--k",
                    "2",
                    "--seed",
                    "1",
                    "-o",
                    str(trace_path),
                    "--spans",
                    str(spans_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace events" in out and "span summary" in out
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"phase1", "phase2", "phase3", "phase4"} <= names
        summary = json.loads(spans_path.read_text())
        assert set(summary["phases"]) == {"phase1", "phase2", "phase3", "phase4"}

    def test_cogcast_trace_via_main_cli(self, tmp_path):
        from repro.obs.export import validate_chrome_trace

        trace_path = tmp_path / "cast.json"
        assert (
            repro_main(
                [
                    "obs",
                    "export-trace",
                    "--protocol",
                    "cogcast",
                    "--n",
                    "8",
                    "--c",
                    "4",
                    "--k",
                    "2",
                    "--seed",
                    "0",
                    "-o",
                    str(trace_path),
                ]
            )
            == 0
        )
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        assert any(e["ph"] == "i" for e in doc["traceEvents"])


class TestReproObsSubcommand:
    def test_validate_via_main_cli(self, telemetry_file, capsys):
        assert repro_main(["obs", "validate", str(telemetry_file)]) == 0
        assert "4 records valid" in capsys.readouterr().out

    def test_summary_via_main_cli(self, telemetry_file, capsys):
        assert repro_main(["obs", "summary", str(telemetry_file)]) == 0
        assert "cogcast" in capsys.readouterr().out

    def test_tail_via_main_cli(self, telemetry_file, capsys):
        assert repro_main(["obs", "tail", str(telemetry_file), "-n", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestMetricsFlag:
    def _instrumented_file(self, tmp_path, name="metrics.jsonl"):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("demo_hits", "demo counter", labels=("where",)).inc(
            2, where="cli"
        )
        rng = derive_rng(2, "test-obs-cli-metrics")
        network = Network.static(shared_core(8, 6, 2, rng))
        path = tmp_path / name
        with TelemetrySink(path) as sink:
            sink.emit(
                run_record(
                    protocol="cogcast",
                    seed=0,
                    network=network,
                    slots=9,
                    outcome="completed",
                    metrics=registry,
                )
            )
        return path

    def test_summary_metrics_renders_prometheus(self, tmp_path, capsys):
        path = self._instrumented_file(tmp_path)
        assert obs_main(["summary", str(path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics (1 snapshots merged):" in out
        assert 'demo_hits_total{where="cli"} 2' in out

    def test_summary_metrics_without_snapshots(self, telemetry_file, capsys):
        assert obs_main(["summary", str(telemetry_file), "--metrics"]) == 0
        assert "no metric snapshots embedded" in capsys.readouterr().out

    def test_tail_metrics_renders_per_record(self, tmp_path, capsys):
        path = self._instrumented_file(tmp_path)
        assert obs_main(["tail", str(path), "-n", "1", "--metrics"]) == 0
        assert "demo_hits_total" in capsys.readouterr().out

    def test_summary_glob_merges_shards(self, tmp_path, capsys):
        self._instrumented_file(tmp_path, "shard_0.jsonl")
        self._instrumented_file(tmp_path, "shard_1.jsonl")
        pattern = str(tmp_path / "shard_*.jsonl")
        assert obs_main(["summary", pattern, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "cogcast: 2 runs" in out
        assert "metrics (2 snapshots merged):" in out
        assert 'demo_hits_total{where="cli"} 4' in out

    def test_validate_glob_expansion(self, tmp_path, capsys):
        self._instrumented_file(tmp_path, "shard_0.jsonl")
        self._instrumented_file(tmp_path, "shard_1.jsonl")
        assert obs_main(["validate", str(tmp_path / "shard_*.jsonl")]) == 0
        assert "2 records valid" in capsys.readouterr().out


class TestDiffSubcommand:
    def test_self_diff_is_identical(self, telemetry_file, capsys):
        assert obs_main(["diff", str(telemetry_file), str(telemetry_file)]) == 0
        assert "IDENTICAL protocol metrics" in capsys.readouterr().out

    def test_diverging_files_exit_nonzero(self, telemetry_file, tmp_path, capsys):
        rng = derive_rng(1, "test-obs-cli")
        network = Network.static(shared_core(8, 6, 2, rng))
        other = tmp_path / "other.jsonl"
        with TelemetrySink(other) as sink:
            for seed in range(4):
                sink.emit(
                    run_record(
                        protocol="cogcast",
                        seed=seed,
                        network=network,
                        slots=40 + seed,
                        outcome="completed",
                    )
                )
        assert obs_main(["diff", str(telemetry_file), str(other)]) == 1
        assert "SIGNIFICANT" in capsys.readouterr().out

    def test_json_and_report_output(self, telemetry_file, tmp_path, capsys):
        report_path = tmp_path / "diff.json"
        assert (
            obs_main(
                [
                    "diff",
                    str(telemetry_file),
                    str(telemetry_file),
                    "--json",
                    "--report",
                    str(report_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["significant"] == 0
        assert json.loads(report_path.read_text())["significant"] == 0

    def test_diff_via_main_cli(self, telemetry_file, capsys):
        assert (
            repro_main(["obs", "diff", str(telemetry_file), str(telemetry_file)]) == 0
        )
        assert "diff:" in capsys.readouterr().out


class TestRunTelemetryFlag:
    def test_run_appends_experiment_manifest(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        assert (
            repro_main(
                [
                    "run",
                    "E16",
                    "--fast",
                    "--trials",
                    "2",
                    "--telemetry",
                    str(path),
                ]
            )
            == 0
        )
        records = read_telemetry(path)
        assert len(records) == 1
        assert records[0]["kind"] == "experiment"
        assert records[0]["experiment"] == "E16"
        assert records[0]["fast"] is True
        assert records[0]["trials"] == 2
        # The experiment output itself still prints.
        assert "E16" in capsys.readouterr().out

    def test_run_record_carries_metrics_and_resources(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        argv = ["run", "E01", "--fast", "--trials", "2", "--telemetry", str(path)]
        assert repro_main(argv) == 0
        records = read_telemetry(path)
        assert [record["kind"] for record in records] == ["experiment"]
        record = records[0]
        series = record["metrics"]["metrics"]["experiments_run"]["series"]
        assert series == [{"labels": ["E01"], "value": 1.0}]
        assert {"gc_collections", "gc_objects"} <= set(record["resources"])
        assert record["resources"]["gc_objects"] > 0

    def test_run_without_flag_writes_nothing(self, tmp_path, capsys):
        assert repro_main(["run", "E16", "--fast", "--trials", "2"]) == 0
        assert not list(tmp_path.iterdir())
