"""Tests for the report generator and remaining CLI paths."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import load_all


class TestWriteReport:
    def test_report_contains_all_experiments(self, cli_report):
        _, path, _ = cli_report
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
        code, path, out = cli_report
        assert code == 0
        assert path.exists()
        assert str(path) in out


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
