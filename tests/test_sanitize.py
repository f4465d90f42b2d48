"""Tests for the dual-run determinism sanitizer (``repro.sanitize``).

Covers the capture/diff machinery in-process, the subprocess driver on
the fixture entry points in ``tests/sanitize_entry.py``, and ISSUE 9's
acceptance pincer: the seeded hidden-state fault is flagged statically
by lint rule R11 *and* pinpointed dynamically by ``repro sanitize`` as
the first divergent record.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import re

import pytest

from repro.cli import main as repro_main
from repro.lint import lint_paths
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import campaign_record
from repro.sanitize import (
    CONTROL,
    Conditions,
    _normalize_telemetry,
    diff_captures,
    resolve_entry,
    run_capture,
    sanitize,
)
from repro.sim.backends import numpy_available

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "sanitize_entry.py"

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


@pytest.fixture
def child_path(monkeypatch):
    """Point capture subprocesses at this checkout's src and fixtures."""
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    )


def snapshot(records):
    return {"schema": "sanitize-capture-1", "records": records}


class TestCapture:
    def test_run_capture_is_deterministic_in_process(self):
        first = run_capture("tests.sanitize_entry:run_clean", trials=2, seed=3)
        second = run_capture("tests.sanitize_entry:run_clean", trials=2, seed=3)
        assert first["records"] == second["records"]
        assert diff_captures(first, second) is None

    def test_capture_strips_volatile_telemetry_fields(self):
        capture = run_capture("tests.sanitize_entry:run_clean", trials=1)
        telemetry = [r for r in capture["records"] if r["kind"] == "telemetry"]
        assert telemetry, "the harness must emit an experiment manifest"
        for record in telemetry:
            assert "elapsed_s" not in record["record"]
            assert "resources" not in record["record"]

    def test_normalization_strips_timing_metrics(self):
        registry = MetricsRegistry()
        registry.counter("campaign_points", "grid points measured").inc()
        registry.histogram(
            "campaign_point_elapsed_s", "per-point wall time", category="timing", width=0.25
        ).observe(0.1)
        record = campaign_record(
            name="c", seed=0, point={"n": 8}, trials=1, mean=1.0, elapsed_s=0.1, metrics=registry
        )
        normalized = _normalize_telemetry(record)
        assert sorted(normalized["metrics"]["metrics"]) == ["campaign_points"]
        assert "campaign_point_elapsed_s" in record["metrics"]["metrics"]

    def test_capture_records_rows_and_conditions(self):
        capture = run_capture("tests.sanitize_entry:run_clean", trials=2, seed=1)
        kinds = [record["kind"] for record in capture["records"]]
        assert kinds[0] == "table"
        assert kinds.count("row") == 2
        assert capture["conditions"]["backend"] == "exact"
        assert "start_method" in capture["pool"]

    def test_resolve_entry_registry_and_module_targets(self):
        assert resolve_entry("e01").experiment_id == "E01"
        spec = resolve_entry("tests.sanitize_entry:run_clean")
        assert callable(spec.run)
        with pytest.raises(KeyError):
            resolve_entry("E99")
        with pytest.raises(AttributeError):
            resolve_entry("tests.sanitize_entry:no_such_entry")


class TestDiff:
    BASE = [
        {"kind": "table", "experiment_id": "T", "columns": ["trial", "slots"]},
        {"kind": "row", "index": 0, "values": {"trial": 0, "slots": 5}},
        {"kind": "row", "index": 1, "values": {"trial": 1, "slots": 7}},
    ]

    def test_identical_captures_diff_clean(self):
        assert diff_captures(snapshot(self.BASE), snapshot(self.BASE)) is None

    def test_first_divergent_record_pinpointed(self):
        perturbed = copy.deepcopy(self.BASE)
        perturbed[1]["values"]["slots"] = 6
        perturbed[2]["values"]["slots"] = 9  # later damage must not win
        divergence = diff_captures(snapshot(self.BASE), snapshot(perturbed))
        assert divergence is not None
        assert divergence.index == 1
        assert divergence.identity == "kind=row index=0"
        (delta,) = divergence.deltas
        assert delta.path == "values.slots"
        assert (delta.control, delta.perturbed) == (5, 6)

    def test_bitwise_not_tolerance(self):
        perturbed = copy.deepcopy(self.BASE)
        perturbed[2]["values"]["slots"] = 7.0  # int vs float: not identical
        divergence = diff_captures(snapshot(self.BASE), snapshot(perturbed))
        assert divergence is not None
        assert divergence.index == 2

    def test_record_count_mismatch_reported(self):
        divergence = diff_captures(snapshot(self.BASE), snapshot(self.BASE[:2]))
        assert divergence is not None
        assert divergence.index == 2
        assert "record count differs" in divergence.identity

    def test_span_context_surfaces_on_divergent_telemetry(self):
        left = snapshot(
            [{"kind": "telemetry", "record": {"kind": "experiment", "rows": 2,
                                              "spans": {"phase": "p1"}}}]
        )
        right = snapshot(
            [{"kind": "telemetry", "record": {"kind": "experiment", "rows": 3,
                                              "spans": {"phase": "p1"}}}]
        )
        divergence = diff_captures(left, right)
        assert divergence is not None
        assert divergence.span_context == {"phase": "p1"}


class TestSanitizeDriver:
    def test_clean_entry_passes_hashseed_and_jobs(self, child_path):
        report = sanitize(
            "tests.sanitize_entry:run_clean",
            trials=2,
            checks=("hashseed", "jobs"),
        )
        assert report.exit_code == 0
        assert [check.name for check in report.checks] == ["hashseed", "jobs"]
        assert all(check.clean for check in report.checks)
        assert "bit-identical" in report.render()

    @needs_numpy
    def test_hidden_state_divergence_pinpointed(self, child_path):
        """The ISSUE 9 acceptance fault, runtime half: ``heard_total``
        is mutated by the exact engine but never replayed by the
        columnar kernel, and the sanitizer names the first divergent
        record and field."""
        report = sanitize(
            "tests.sanitize_entry:run_hidden_state",
            trials=2,
            checks=("backend",),
        )
        assert report.exit_code == 1
        (check,) = report.checks
        assert check.name == "backend"
        assert check.perturbed.backend == "vector-replay"
        divergence = check.divergence
        assert divergence is not None
        assert divergence.identity == "kind=row index=0"
        paths = [delta.path for delta in divergence.deltas]
        assert paths == ["values.heard_total"]
        (delta,) = divergence.deltas
        assert delta.control > 0 and delta.perturbed == 0
        assert "heard_total" in report.render()

    @pytest.mark.parametrize("jobs", [0, 1])
    def test_jobs_check_that_perturbs_nothing_rejected(self, child_path, jobs):
        with pytest.raises(ValueError, match="perturbs nothing"):
            sanitize(
                "tests.sanitize_entry:run_clean", trials=2, jobs=jobs, checks=("jobs",)
            )

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown sanitize check"):
            sanitize("tests.sanitize_entry:run_clean", checks=("phase-of-moon",))

    def test_control_conditions_are_pinned(self):
        assert CONTROL == Conditions(hashseed="0", jobs=1, backend="exact")


class TestSanitizeCli:
    @needs_numpy
    def test_cli_divergence_exit_and_report(self, child_path, tmp_path, capsys):
        report_path = tmp_path / "sanitize.json"
        code = repro_main(
            [
                "sanitize",
                "tests.sanitize_entry:run_hidden_state",
                "--trials",
                "2",
                "--checks",
                "backend",
                "--report",
                str(report_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[DIVERGED]" in out
        assert "values.heard_total" in out
        document = json.loads(report_path.read_text(encoding="utf-8"))
        assert document["schema"] == "sanitize-report-1"
        assert document["clean"] is False
        (check,) = document["checks"]
        assert check["divergence"]["identity"] == "kind=row index=0"

    def test_cli_usage_error_is_exit_2(self, capsys):
        code = repro_main(["sanitize", "tests.sanitize_entry:no_such_entry"])
        assert code == 2
        assert "repro sanitize" in capsys.readouterr().err

    def test_cli_trials_below_one_refused_before_capture(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(
                ["sanitize", "E01", "--fast", "--trials", "0", "--checks", "hashseed"]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --trials: must be >= 1, got 0" in err
        assert "Traceback" not in err

    def test_cli_unknown_experiment_refused_before_capture(self, monkeypatch, capsys):
        def no_capture(*args, **kwargs):
            raise AssertionError("a capture child started")

        monkeypatch.setattr("repro.sanitize.capture_subprocess", no_capture)
        code = repro_main(["sanitize", "E99", "--fast", "--checks", "hashseed"])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("repro sanitize: error: unknown experiment 'E99'; ")
        assert line.endswith("known: " + ", ".join(f"E{i:02d}" for i in range(1, 30)))

    @pytest.mark.parametrize(
        ("target", "message"),
        [
            (
                "tests.sanitize_entry:nope",
                "module 'tests.sanitize_entry' has no attribute 'nope'",
            ),
            ("no_such_module:run", "No module named 'no_such_module'"),
        ],
        ids=["function", "module"],
    )
    def test_cli_unknown_entry_point_refused_before_capture(
        self, target, message, monkeypatch, capsys
    ):
        def no_capture(*args, **kwargs):
            raise AssertionError("a capture child started")

        monkeypatch.setattr("repro.sanitize.capture_subprocess", no_capture)
        assert repro_main(["sanitize", target, "--checks", "hashseed"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"repro sanitize: error: {message}"
        ]

    def test_cli_jobs_below_two_needs_no_jobs_check(self, child_path, capsys):
        entry = ["sanitize", "tests.sanitize_entry:run_clean", "--trials", "2"]
        assert repro_main([*entry, "--jobs", "0"]) == 2
        assert "perturbs nothing" in capsys.readouterr().err
        assert repro_main([*entry, "--checks", "hashseed", "--jobs", "1"]) == 0
        assert "[ok]   hashseed" in capsys.readouterr().out


class TestStaticRuntimePincer:
    def test_r11_flags_the_same_seeded_fault(self, tmp_path):
        """The ISSUE 9 acceptance fault, static half: strip the
        fixture's suppression comments and R11 must flag the exact
        mutation the sanitizer's backend check diverges on."""
        source = FIXTURE.read_text(encoding="utf-8")
        stripped = re.sub(r"[ \t]*# lint: disable=R11", "", source)
        assert stripped != source, "fixture must carry the suppression"
        target = tmp_path / "sanitize_entry.py"
        target.write_text(stripped, encoding="utf-8")
        findings = [
            finding
            for finding in lint_paths([str(target)], select=["R11"])
            if finding.rule == "R11"
        ]
        assert len(findings) == 1
        (finding,) = findings
        assert "'HiddenCast'" in finding.message
        assert "self.heard_total" in finding.message
        assert "via end_slot()" in finding.message
        assert "vector_export" in finding.message
