"""Tests for bootstrap CIs and the tree pretty-printer."""

from __future__ import annotations

import random
import statistics

import pytest

from repro.analysis import BootstrapCI, bootstrap_ci, speedup_ci
from repro.core.tree import DistributionTree


class TestBootstrapCI:
    def test_contains_point_estimate_for_mean(self):
        samples = [10, 12, 9, 11, 13, 10, 12]
        ci = bootstrap_ci(samples, statistics.fmean, seed=0)
        assert ci.low <= ci.estimate <= ci.high
        assert ci.contains(statistics.fmean(samples))

    def test_deterministic_in_seed(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        a = bootstrap_ci(samples, statistics.fmean, seed=5)
        b = bootstrap_ci(samples, statistics.fmean, seed=5)
        assert (a.low, a.high) == (b.low, b.high)

    def test_narrower_with_more_data(self):
        rng = random.Random(0)
        small = [rng.gauss(10, 2) for _ in range(8)]
        large = small * 8
        ci_small = bootstrap_ci(small, statistics.fmean, seed=1)
        ci_large = bootstrap_ci(large, statistics.fmean, seed=1)
        assert (ci_large.high - ci_large.low) < (ci_small.high - ci_small.low)

    def test_constant_sample_degenerate(self):
        ci = bootstrap_ci([5.0] * 10, statistics.fmean, seed=2)
        assert ci.low == ci.high == ci.estimate == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], statistics.fmean)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], statistics.fmean, confidence=1.5)


    @pytest.mark.parametrize("resamples", [0, -1])
    def test_rejects_fewer_than_one_resample(self, resamples):
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_ci([1.0, 2.0], statistics.fmean, resamples=resamples)
        with pytest.raises(ValueError, match="resamples"):
            speedup_ci([1.0, 2.0], [1.0, 2.0], resamples=resamples)


class TestSpeedupCI:
    def test_clear_winner_ci_above_one(self):
        rng = random.Random(3)
        baseline = [rng.gauss(100, 5) for _ in range(20)]
        treatment = [rng.gauss(20, 2) for _ in range(20)]
        ci = speedup_ci(baseline, treatment, seed=4)
        assert ci.low > 1.0
        assert 4.0 < ci.estimate < 6.0

    def test_no_difference_ci_straddles_one(self):
        rng = random.Random(5)
        a = [rng.gauss(50, 5) for _ in range(25)]
        b = [rng.gauss(50, 5) for _ in range(25)]
        ci = speedup_ci(a, b, seed=6)
        assert ci.contains(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup_ci([], [1.0])

    def test_real_comparison_cogcast_vs_rendezvous(self):
        """The E04 headline, with a bootstrap-solid interval."""
        from repro.experiments.e01_cogcast_scaling_n import measure_cogcast_slots
        from repro.experiments.e04_broadcast_head_to_head import (
            measure_rendezvous_slots,
        )

        n, c, k = 32, 8, 2
        cogcast = [float(measure_cogcast_slots(n, c, k, s)) for s in range(10)]
        baseline = [float(measure_rendezvous_slots(n, c, k, s)) for s in range(10)]
        ci = speedup_ci(baseline, cogcast, seed=7)
        assert ci.low > 1.0  # COGCAST wins, statistically


class TestTreeRender:
    def tree(self) -> DistributionTree:
        # 0 -> {1, 2}; 1 -> {3}; 3 -> {4}
        return DistributionTree.from_parents(0, [None, 0, 0, 1, 3])

    def test_contains_all_nodes(self):
        rendered = self.tree().render_ascii()
        for node in range(5):
            assert str(node) in rendered

    def test_structure_markers(self):
        rendered = self.tree().render_ascii()
        assert "├── 1" in rendered
        assert "└── 2" in rendered
        assert "└── 3" in rendered

    def test_max_depth_truncates(self):
        rendered = self.tree().render_ascii(max_depth=1)
        assert "…" in rendered
        assert "4" not in rendered

    def test_single_node(self):
        tree = DistributionTree.from_parents(0, [None, 0])
        rendered = tree.render_ascii()
        assert rendered.splitlines()[0] == "0"

    def test_real_tree_renders(self):
        import random as _random

        from repro.assignment import shared_core
        from repro.core import run_local_broadcast
        from repro.sim import Network

        rng = _random.Random(0)
        network = Network.static(
            shared_core(10, 5, 2, rng).shuffled_labels(rng), validate=False
        )
        result = run_local_broadcast(network, seed=0, max_slots=50_000)
        tree = DistributionTree.from_parents(0, result.parents)
        rendered = tree.render_ascii()
        assert len(rendered.splitlines()) == 10
