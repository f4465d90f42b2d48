"""Tests for the report generator and remaining CLI paths."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import load_all
from repro.obs.telemetry import read_telemetry


class TestWriteReport:
    def test_report_contains_all_experiments(self, cli_report):
        _, path, _, _ = cli_report
        content = path.read_text()
        for experiment_id in load_all():
            assert f"## {experiment_id} — " in content
        assert content.startswith("# Reproduction report")
        assert "Claim:" in content
        assert "```" in content

    def test_report_records_invocation(self, report_pair):
        content = report_pair[0].read_text()
        assert "seed=3" in content
        assert "trials=2" in content
        assert "fast=True" in content

    def test_report_cli(self, cli_report):
        code, path, out, _ = cli_report
        assert code == 0
        assert path.exists()
        assert str(path) in out

    def test_report_experiment_records_carry_metrics_and_resources(self, cli_report):
        """``report`` writes the experiment record ``run`` writes."""
        *_, telemetry = cli_report
        records = [
            record
            for record in read_telemetry(telemetry)
            if record["kind"] == "experiment"
        ]
        assert [record["experiment"] for record in records] == list(load_all())
        for record in records:
            counted = record["metrics"]["metrics"]["experiments_run"]["series"]
            assert counted == [{"labels": [record["experiment"]], "value": 1.0}]
            assert "max_rss_kb" in record["resources"]


class TestCliEdges:
    def test_run_all_fast(self, capsys):
        assert main(["run", "all", "--fast", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        for experiment_id in load_all():
            assert f"[{experiment_id} finished in" in out

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_lowercase_id_accepted(self, capsys):
        assert main(["run", "e16", "--fast", "--trials", "2"]) == 0
        assert "E16" in capsys.readouterr().out


class TestNumericOptions:
    """Out-of-range numbers are usage errors (exit 2), not tracebacks."""

    @staticmethod
    def _usage_error(argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_trials_must_be_positive(self, command, tmp_path, capsys):
        where = ["E01"] if command == "run" else ["--output", str(tmp_path / "r.md")]
        self._usage_error([command, *where, "--fast", "--trials", "0"], capsys)

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_jobs_must_be_non_negative(self, command, tmp_path, capsys):
        where = ["E01"] if command == "run" else ["--output", str(tmp_path / "r.md")]
        self._usage_error([command, *where, "--fast", "--jobs", "-3"], capsys)

    def test_bench_threshold_must_be_positive(self, capsys):
        self._usage_error(["bench", "check", "--threshold", "0"], capsys)
