"""Self-tests of the benchmark at its smoke size (a few seconds per run).

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT, seconds: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "smoke",
         "--seconds", seconds, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def checkout_copy(tmp_path: Path, *directories: str) -> Path:
    """A checkout in *tmp_path* holding BENCHMARK.json and *directories*;
    it is not a git repository."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    for name in directories:
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def expected_metrics(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_metrics("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_a_valid_trace(workload):
    from repro.obs.export import validate_chrome_trace

    # Long enough that the untraced half is cut in the middle of a pass.
    result = result_of(bench("--workload", workload, "--seed", "3", "--trace", "1", seconds="3"))
    assert result["correct"], result
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_metrics("per_layer")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["sim.engine.run.runs"] + metrics["sim.backends.vector.runs"] > 0
    assert metrics["unattributed_s"] > 0
    trace = json.loads((ROOT / ".perfbench" / f"trace-{workload}.json").read_text())
    assert validate_chrome_trace(trace) == []
    if workload == "telemetry":
        # Spans of the read verbs' child interpreters were adopted.
        assert len({event["pid"] for event in trace["traceEvents"]}) > 1
        assert metrics["obs.cli.import_s"] > 0 and metrics["obs.query.rows"] > 0
        assert metrics["obs.store.deduplicated"] == metrics["obs.store.ingested"] > 0


def test_planted_wrong_digest_raises_fail_ratio(tmp_path):
    checkout = checkout_copy(tmp_path, "perfbench", "src")
    digests_path = checkout / "perfbench" / "digests.json"
    digests = json.loads(digests_path.read_text(encoding="utf-8"))
    digests["tables"]["E07"] = ["0" * 64]
    digests_path.write_text(json.dumps(digests), encoding="utf-8")
    done = bench("--workload", "reproduce", "--seed", "0", cwd=checkout)
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "E07: table digest does not match" in done.stdout


def test_a_unit_that_raises_on_every_repeat_counts_as_failed(tmp_path):
    checkout = checkout_copy(tmp_path, "perfbench", "src")
    runners = checkout / "src" / "repro" / "core" / "runners.py"
    planted = "\n\ndef run_gossip(*args, **kwargs):\n    raise RuntimeError('planted')\n"
    runners.write_text(runners.read_text(encoding="utf-8") + planted, encoding="utf-8")
    done = bench("--workload", "scale", "--seed", "0", cwd=checkout)
    result = result_of(done)
    assert not result["correct"] and result["failed"] > 0
    assert "gossip-24-vector-replay: raised RuntimeError: planted" in done.stdout
    assert result["metrics"]["wall_s"]["value"] > 0


def test_scratch_files_are_removed():
    result_of(bench("--workload", "telemetry", "--seed", "0"))
    assert not list((ROOT / ".perfbench").glob("run-*"))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    done = bench("--workload", "scale", "--seed", "0", cwd=checkout_copy(tmp_path, "perfbench"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_runs_in_a_checkout_that_is_not_a_git_repository(tmp_path):
    checkout = checkout_copy(tmp_path, "perfbench", "src")
    result = result_of(bench("--workload", "telemetry", "--seed", "0", cwd=checkout))
    assert result["correct"], result


def test_self_time_subtracts_child_spans_and_reference_samples():
    tracer = tracing.Tracer()
    tracer.unit = "0/unit"
    root = tracer.begin(tracing.UNIT)
    child = tracer.begin("sim.engine.run")
    tracer.end(child)
    tracer.end(root)
    tracer.spans[root][1:3] = [0.0, 3.0]
    tracer.spans[child][1:3] = [1.0, 2.5]
    assert tracer.self_times({"0/unit": 2.0}, []) == {tracing.UNIT: 3.0, "sim.engine.run": 3.0}
    # One sample of 0.25 s inside the child, one of 0.5 s in the root's own time.
    ticks = [(1.25, 1.5), (2.5, 3.0)]
    assert tracer.self_times({"0/unit": 2.0}, ticks) == {tracing.UNIT: 2.0, "sim.engine.run": 2.5}
