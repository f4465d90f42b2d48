"""Tests for the experiment harness, registry, CLI, and fast experiment runs."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.experiments.harness import Table, mean, median, trial_seeds
from repro.experiments.registry import get, load_all

ALL_IDS = [f"E{index:02d}" for index in range(1, 30)]


class TestTable:
    def table(self) -> Table:
        return Table(
            experiment_id="E99",
            title="demo",
            claim="demo claim",
            columns=("a", "b"),
            rows=((1, 2.5), (3, 4.0)),
            notes="a note",
        )

    def test_column_extraction(self):
        assert self.table().column("a") == [1, 3]
        assert self.table().column("b") == [2.5, 4.0]

    def test_unknown_column(self):
        with pytest.raises(ValueError):
            self.table().column("zzz")

    def test_render_contains_everything(self):
        rendered = self.table().render()
        assert "E99" in rendered
        assert "demo claim" in rendered
        assert "a note" in rendered
        assert "2.50" in rendered

    def test_render_alignment(self):
        lines = self.table().render().splitlines()
        header = next(line for line in lines if line.startswith("a"))
        separator = lines[lines.index(header) + 1]
        assert len(header) == len(separator)

    def test_bool_formatting(self):
        table = Table("E98", "t", "c", ("ok",), ((True,), (False,)))
        rendered = table.render()
        assert "yes" in rendered and "no" in rendered


class TestHarnessHelpers:
    def test_trial_seeds_deterministic(self):
        assert trial_seeds(0, "E01", 3) == trial_seeds(0, "E01", 3)

    def test_trial_seeds_distinct(self):
        seeds = trial_seeds(0, "E01", 50)
        assert len(set(seeds)) == 50

    def test_trial_seeds_vary_by_experiment(self):
        assert trial_seeds(0, "E01", 2) != trial_seeds(0, "E02", 2)

    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            mean([])


class TestRegistry:
    def test_all_experiments_registered(self):
        registry = load_all()
        assert sorted(registry) == ALL_IDS

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get("E77")

    def test_specs_have_metadata(self):
        for spec in load_all().values():
            assert spec.title
            assert spec.claim


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_fast_run_produces_table(experiment_id):
    """Every experiment must run in fast mode and produce a sane table."""
    spec = get(experiment_id)
    table = spec.run(trials=2, seed=0, fast=True)
    assert table.experiment_id == experiment_id
    assert table.rows
    assert all(len(row) == len(table.columns) for row in table.rows)
    # Render must not raise.
    assert experiment_id in table.render()


def test_fast_runs_are_deterministic():
    spec = get("E10")
    first = spec.run(trials=3, seed=1, fast=True)
    second = spec.run(trials=3, seed=1, fast=True)
    assert first.rows == second.rows


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ALL_IDS:
            assert experiment_id in out

    def test_run_single(self, capsys):
        assert main(["run", "e10", "--fast", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "E10" in out
        assert "finished in" in out

    def test_run_unknown(self, capsys):
        """An unknown id is a usage error: exit 2, one line naming the ids."""
        assert main(["run", "E77", "--fast"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro run: error: unknown experiment 'E77'; known: {', '.join(ALL_IDS)}"
        ]

    def test_run_and_report_share_their_options(self):
        (subcommands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        shared = ("trials", "seed", "fast", "jobs", "telemetry", "backend")

        def options(command):
            return {
                action.dest: (
                    action.option_strings, action.type, action.default, action.help
                )
                for action in subcommands.choices[command]._actions
                if action.dest in shared
            }

        assert sorted(options("run")) == sorted(shared)
        assert options("report") == options("run")
