"""repro.perf: deterministic parallel trial execution.

The contract under test is docs/performance.md's: ``pmap_trials`` is
``[fn(*args) for args in items]``, always — parallelism may only change
the wall clock.  Fallback paths (jobs=1, unpicklable functions) must
produce the same values silently, worker telemetry must merge into one
valid stream, and every entry point (``map_trials``, ``Campaign.run``,
the CLI ``--jobs`` flag) must leave results untouched.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.sim.backends
from repro.experiments.campaign import Campaign
from repro.experiments.harness import map_trials, trial_seeds
from repro.obs.telemetry import TelemetrySink, read_telemetry, run_record
from repro.perf import (
    default_jobs,
    merge_telemetry,
    merged_metrics,
    pmap_trials,
    resolve_jobs,
    set_default_jobs,
    worker_telemetry_path,
)
from repro.perf.executor import _init_worker


def square(x):
    return x * x


def affine(a, b):
    return 3 * a + b


@pytest.fixture(autouse=True)
def restore_default_jobs():
    before = default_jobs()
    yield
    set_default_jobs(before)


class TestPmapTrials:
    def test_serial_matches_comprehension(self):
        items = [(i,) for i in range(10)]
        assert pmap_trials(square, items, jobs=1) == [i * i for i in range(10)]

    def test_parallel_matches_serial_in_order(self):
        items = [(i, i + 1) for i in range(20)]
        expected = [affine(a, b) for a, b in items]
        assert pmap_trials(affine, items, jobs=4) == expected

    def test_unpicklable_function_falls_back(self):
        offset = 5
        items = [(i,) for i in range(6)]
        got = pmap_trials(lambda x: x + offset, items, jobs=4)
        assert got == [i + offset for i in range(6)]

    def test_empty_and_singleton_work_lists(self):
        assert pmap_trials(square, [], jobs=4) == []
        assert pmap_trials(square, [(3,)], jobs=4) == [9]

    def test_jobs_none_uses_process_default(self):
        set_default_jobs(1)
        assert pmap_trials(square, [(i,) for i in range(4)]) == [0, 1, 4, 9]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            pmap_trials(square, [(1,)], jobs=-2)

    def test_worker_initializer_raises_on_unknown_backend(self):
        # A worker left on another backend would return numbers from a
        # different random stream than a serial run: never swallow this.
        with pytest.raises(ValueError):
            _init_worker("no-such-backend")

    def test_failing_worker_initializer_fails_the_map(self, monkeypatch):
        monkeypatch.setattr(
            repro.sim.backends, "default_backend_name", lambda: "no-such-backend"
        )
        with pytest.raises(BrokenProcessPool):
            pmap_trials(square, [(i,) for i in range(4)], jobs=2)


class TestJobsResolution:
    def test_resolve_explicit(self):
        assert resolve_jobs(3) == 3

    def test_resolve_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_resolve_none_reads_default(self):
        set_default_jobs(7)
        assert resolve_jobs(None) == 7

    def test_set_default_zero_means_all_cores(self):
        set_default_jobs(0)
        assert default_jobs() >= 1

    def test_set_default_negative_rejected(self):
        with pytest.raises(ValueError):
            set_default_jobs(-1)


class TestMapTrials:
    def test_matches_plain_loop(self):
        seeds = trial_seeds(0, "perf-test", 6)
        assert map_trials(square, seeds, jobs=2) == [s * s for s in seeds]


def _campaign_measure(point, seed):
    return float(point["n"] * 100 + seed % 97)


class TestCampaignParallel:
    GRID = [{"n": 2}, {"n": 3}, {"n": 5}]

    def test_serial_and_parallel_tables_identical(self):
        campaign = Campaign("perf-test", measure=_campaign_measure)
        serial = campaign.run(self.GRID, trials=4, seed=9, jobs=1)
        parallel = campaign.run(self.GRID, trials=4, seed=9, jobs=2)
        assert [r.samples for r in serial] == [r.samples for r in parallel]
        assert (
            campaign.table(serial).rows == campaign.table(parallel).rows
        )

    def test_lambda_measure_still_parallel_safe(self):
        campaign = Campaign("perf-test", measure=lambda p, s: float(s % 13))
        serial = campaign.run(self.GRID, trials=3, seed=1, jobs=1)
        parallel = campaign.run(self.GRID, trials=3, seed=1, jobs=4)
        assert [r.samples for r in serial] == [r.samples for r in parallel]


class TestTelemetryMerge:
    @staticmethod
    def _record(seed):
        import random

        from repro.assignment import shared_core
        from repro.sim import Network

        network = Network.static(shared_core(8, 4, 2, random.Random(0)))
        return run_record(
            protocol="cogcast",
            seed=seed,
            network=network,
            slots=10 + seed,
            outcome="completed",
        )

    def test_worker_path_naming(self, tmp_path):
        base = tmp_path / "telemetry.jsonl"
        assert worker_telemetry_path(base, 3).name == "telemetry.worker3.jsonl"

    def test_merge_preserves_order_and_validates(self, tmp_path):
        paths = []
        for index in range(3):
            path = worker_telemetry_path(tmp_path / "t.jsonl", index)
            with TelemetrySink(path) as sink:
                sink.emit(self._record(index))
            paths.append(path)
        merged_path = tmp_path / "t.jsonl"
        with TelemetrySink(merged_path) as sink:
            count = merge_telemetry(paths, sink, remove=True)
        assert count == 3
        records = read_telemetry(merged_path)
        assert [r["seed"] for r in records] == [0, 1, 2]
        assert not any(path.exists() for path in paths)

    def test_merge_skips_missing_worker_files(self, tmp_path):
        path = worker_telemetry_path(tmp_path / "t.jsonl", 0)
        with TelemetrySink(path) as sink:
            sink.emit(self._record(5))
        missing = worker_telemetry_path(tmp_path / "t.jsonl", 1)
        with TelemetrySink(tmp_path / "t.jsonl") as sink:
            count = merge_telemetry([path, missing], sink)
        assert count == 1


class TestMergedMetrics:
    @staticmethod
    def _instrumented_record(seed, hits):
        import random

        from repro.assignment import shared_core
        from repro.obs.metrics import MetricsRegistry
        from repro.sim import Network

        registry = MetricsRegistry()
        registry.counter("worker_hits", "per-worker hit count").inc(hits)
        registry.gauge("worker_last_seed", "last seed processed").set(seed)
        network = Network.static(shared_core(8, 4, 2, random.Random(0)))
        return run_record(
            protocol="cogcast",
            seed=seed,
            network=network,
            slots=10 + seed,
            outcome="completed",
            metrics=registry,
        )

    def _shard(self, tmp_path, index, hits):
        path = worker_telemetry_path(tmp_path / "t.jsonl", index)
        with TelemetrySink(path) as sink:
            sink.emit(self._instrumented_record(index, hits))
        return path

    def test_counters_add_across_worker_shards(self, tmp_path):
        paths = [self._shard(tmp_path, index, hits=index + 1) for index in range(3)]
        snapshot = merged_metrics(paths)
        series = snapshot["metrics"]["worker_hits"]["series"]
        assert series[0]["value"] == 6

    def test_path_order_determines_gauge_winner(self, tmp_path):
        paths = [self._shard(tmp_path, index, hits=1) for index in range(3)]
        snapshot = merged_metrics(paths)
        series = snapshot["metrics"]["worker_last_seed"]["series"]
        assert series[0]["value"] == 2
        assert series[0]["min"] == 0
        assert series[0]["max"] == 2

    def test_missing_worker_files_contribute_nothing(self, tmp_path):
        present = self._shard(tmp_path, 0, hits=4)
        missing = worker_telemetry_path(tmp_path / "t.jsonl", 1)
        snapshot = merged_metrics([present, missing])
        assert snapshot["metrics"]["worker_hits"]["series"][0]["value"] == 4

    def test_uninstrumented_serial_fallback_merges_empty(self, tmp_path):
        path = worker_telemetry_path(tmp_path / "t.jsonl", 0)
        with TelemetrySink(path) as sink:
            sink.emit(TestTelemetryMerge._record(0))
        snapshot = merged_metrics([path])
        assert snapshot == {"schema": 1, "metrics": {}}
        from repro.obs.metrics import validate_snapshot

        assert validate_snapshot(snapshot) == []


class TestCliJobs:
    def test_jobs_flag_sets_process_default(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "E01", "--fast", "--trials", "1", "--jobs", "2"]) == 0
        assert default_jobs() == 2
        capsys.readouterr()

    def test_jobs_do_not_change_tables(self, capsys):
        from repro.experiments import get

        serial = get("E01").run(trials=2, seed=11, fast=True)
        set_default_jobs(2)
        parallel = get("E01").run(trials=2, seed=11, fast=True)
        assert serial.rows == parallel.rows
        capsys.readouterr()
