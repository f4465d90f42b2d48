"""Determinism guarantees across the experiment suite.

Reproducibility is a headline deliverable: the same seed must give the
same table, and different seeds must actually vary the randomness.
A representative cross-section of the suite is checked (covering every
substrate: broadcast, aggregation, games, backoff, faults, spectrum).
"""

from __future__ import annotations

import pytest

from repro.experiments import get

REPRESENTATIVES = ["E01", "E05", "E07", "E10", "E16", "E17", "E21", "E26"]


@pytest.mark.parametrize("experiment_id", REPRESENTATIVES)
def test_same_seed_same_table(experiment_id):
    spec = get(experiment_id)
    first = spec.run(trials=2, seed=11, fast=True)
    second = spec.run(trials=2, seed=11, fast=True)
    assert first.rows == second.rows


@pytest.mark.parametrize("experiment_id", ["E01", "E10", "E21"])
def test_different_seed_different_samples(experiment_id):
    """Seeds must actually steer the randomness (not be ignored).

    Compared on experiments whose cells are raw measurements (means over
    few trials), where seed changes are essentially certain to show.
    """
    spec = get(experiment_id)
    a = spec.run(trials=2, seed=1, fast=True)
    b = spec.run(trials=2, seed=2, fast=True)
    assert a.rows != b.rows


def test_report_is_deterministic(report_pair):
    first, second = report_pair

    def strip_runtimes(text: str) -> str:
        return "\n".join(
            line for line in text.splitlines() if not line.startswith("_Runtime")
        )

    assert strip_runtimes(first.read_text()) == strip_runtimes(second.read_text())
