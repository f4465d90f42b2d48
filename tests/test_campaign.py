"""Unit tests for repro.experiments.campaign — the multi-seed runner."""

from __future__ import annotations

import pytest

from repro.experiments.campaign import Campaign, PointResult


def deterministic_measure(point, seed):
    """A fake measurement: depends on the point and (slightly) the seed."""
    return point["x"] * 10 + (seed % 3)


class TestCampaignRun:
    def campaign(self) -> Campaign:
        return Campaign(name="unit", measure=deterministic_measure)

    def test_one_result_per_point(self):
        results = self.campaign().run(
            [{"x": 1}, {"x": 2}, {"x": 3}], trials=4, seed=0
        )
        assert len(results) == 3
        assert all(len(r.samples) == 4 for r in results)

    def test_deterministic_in_seed(self):
        grid = [{"x": 5}]
        first = self.campaign().run(grid, trials=5, seed=7)
        second = self.campaign().run(grid, trials=5, seed=7)
        assert first[0].samples == second[0].samples

    def test_seed_changes_samples(self):
        grid = [{"x": 5}]
        a = self.campaign().run(grid, trials=8, seed=1)[0].samples
        b = self.campaign().run(grid, trials=8, seed=2)[0].samples
        assert a != b

    def test_name_isolates_streams(self):
        grid = [{"x": 5}]
        a = Campaign(name="one", measure=deterministic_measure).run(
            grid, trials=8, seed=0
        )[0].samples
        b = Campaign(name="two", measure=deterministic_measure).run(
            grid, trials=8, seed=0
        )[0].samples
        assert a != b

    def test_summary_and_ci(self):
        results = self.campaign().run([{"x": 1}], trials=10, seed=0)
        result = results[0]
        assert result.ci_low <= result.summary.mean <= result.ci_high
        assert 10 <= result.summary.mean <= 12

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            self.campaign().run([{"x": 1}], trials=0)

    def test_watchdog_anomalies_written_per_run_under_trial_seed(self):
        import io
        import json

        from repro.assignment import shared_core
        from repro.core.runners import run_local_broadcast
        from repro.obs import SlotBudgetWatchdog, TelemetrySink
        from repro.sim.channels import Network
        from repro.sim.rng import derive_rng, derive_seed

        handle = io.StringIO()
        sink = TelemetrySink(handle)

        def measure(point, seed):
            network = Network.static(
                shared_core(point["n"], 6, 2, derive_rng(seed, "network"))
            )
            return run_local_broadcast(
                network,
                seed=seed,
                max_slots=5000,
                watchdogs=[SlotBudgetWatchdog(budget=1)],
                telemetry=sink,
            ).slots

        grid = [{"n": 8}, {"n": 12}]
        Campaign(name="dogs", measure=measure).run(
            grid, trials=3, seed=0, telemetry=sink
        )
        records = [json.loads(line) for line in handle.getvalue().splitlines()]
        trial_seeds = [
            derive_seed(0, "campaign", "dogs", index, trial)
            for index in range(len(grid))
            for trial in range(3)
        ]
        runs = [r["seed"] for r in records if r["kind"] == "run"]
        anomalies = [r for r in records if r["kind"] == "anomaly"]
        assert runs == trial_seeds
        assert [r["seed"] for r in anomalies] == trial_seeds
        assert {r["rule"] for r in anomalies} == {"slot-budget"}
        # Each anomaly directly follows the record of the run that saw it.
        for anomaly in anomalies:
            before = records[records.index(anomaly) - 1]
            assert (before["kind"], before["seed"]) == ("run", anomaly["seed"])
        assert sum(r["kind"] == "campaign" for r in records) == len(grid)


class TestCampaignTable:
    def test_table_shape(self):
        campaign = Campaign(name="unit", measure=deterministic_measure)
        results = campaign.run([{"x": 1}, {"x": 2}], trials=3, seed=0)
        table = campaign.table(results, title="demo", claim="claim text")
        assert table.columns[0] == "x"
        assert "mean" in table.columns
        assert len(table.rows) == 2
        assert table.column("x") == [1, 2]

    def test_heterogeneous_points(self):
        campaign = Campaign(name="unit", measure=lambda p, s: 1.0)
        results = campaign.run([{"x": 1}, {"x": 2, "y": 9}], trials=2, seed=0)
        table = campaign.table(results)
        assert "y" in table.columns
        assert table.column("y") == ["", 9]

    def test_empty_results_rejected(self):
        campaign = Campaign(name="unit", measure=deterministic_measure)
        with pytest.raises(ValueError):
            campaign.table([])

    def test_real_measurement_integration(self):
        """Drive the campaign with an actual COGCAST measurement."""
        from repro.experiments.e01_cogcast_scaling_n import measure_cogcast_slots

        campaign = Campaign(
            name="cogcast-mini",
            measure=lambda point, seed: measure_cogcast_slots(
                point["n"], 8, 2, seed
            ),
        )
        results = campaign.run([{"n": 8}, {"n": 16}], trials=3, seed=0)
        assert all(r.summary.mean > 0 for r in results)
