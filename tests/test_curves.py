"""Unit tests for repro.analysis.curves — ASCII rendering."""

from __future__ import annotations

import pytest

from repro.analysis.curves import ascii_curve, histogram, sparkline


class TestAsciiCurve:
    def test_renders_all_points(self):
        out = ascii_curve([(1, 2), (2, 4), (3, 8)])
        lines = out.splitlines()
        assert len(lines) == 4  # header + 3 points
        assert "8" in lines[-1]

    def test_bar_lengths_proportional(self):
        out = ascii_curve([(1, 1), (2, 2)], width=10)
        lines = out.splitlines()[1:]
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_labels(self):
        out = ascii_curve([(0, 1)], x_label="slot", y_label="informed")
        assert "slot" in out and "informed" in out

    def test_zero_values(self):
        out = ascii_curve([(0, 0), (1, 0)])
        assert "#" not in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve([])

    def test_bad_width(self):
        with pytest.raises(ValueError):
            ascii_curve([(0, 1)], width=0)


class TestSparkline:
    def test_length(self):
        assert len(sparkline([1, 2, 3])) == 3

    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▄▄▄"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestHistogram:
    def test_bins_and_counts(self):
        out = histogram([1, 1, 1, 5, 9], bins=2)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("3")  # samples 1,1,1 land in bin 0
        assert lines[1].endswith("2")

    def test_constant_sample(self):
        out = histogram([4, 4, 4])
        assert out.endswith("3")

    def test_max_value_included(self):
        out = histogram([0, 10], bins=5)
        assert out.splitlines()[-1].endswith("1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([])

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1], bins=0)


class TestIntegrationWithRealData:
    def test_epidemic_curve_renders(self):
        import random

        from repro.assignment import shared_core
        from repro.core import run_local_broadcast
        from repro.sim import EventTrace, Network, informed_curve

        rng = random.Random(0)
        network = Network.static(
            shared_core(16, 6, 2, rng).shuffled_labels(rng), validate=False
        )
        trace = EventTrace()
        result = run_local_broadcast(network, seed=0, max_slots=50_000, trace=trace)
        assert result.completed
        curve = informed_curve(trace, root=0)
        rendered = ascii_curve(
            [(float(slot), float(count)) for slot, count in curve],
            x_label="slot",
            y_label="informed",
        )
        assert "16" in rendered
