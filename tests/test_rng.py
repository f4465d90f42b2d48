"""Unit tests for repro.sim.rng — deterministic stream derivation."""

from __future__ import annotations

import random

import pytest

from repro.sim.rng import derive_rng, derive_seed, sample_distinct, spawn_rngs


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "node", 1) == derive_seed(0, "node", 1)

    def test_scope_changes_seed(self):
        assert derive_seed(0, "node", 1) != derive_seed(0, "node", 2)

    def test_root_changes_seed(self):
        assert derive_seed(0, "node", 1) != derive_seed(1, "node", 1)

    def test_scope_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_64_bit_range(self):
        seed = derive_seed(12345, "x")
        assert 0 <= seed < 2**64

    def test_no_scope(self):
        # A bare root seed is a valid scope path.
        assert derive_seed(7) == derive_seed(7)

    def test_distinct_across_many_scopes(self):
        seeds = {derive_seed(0, "node", index) for index in range(1000)}
        assert len(seeds) == 1000

    def test_int_seeds_keep_their_streams(self):
        assert derive_seed(3, "node", 1) == 11440499460468026996

    def test_numpy_integer_seed_derives_the_equal_ints_streams(self):
        """A seed read from a numpy array derives what the equal int derives.

        Under numpy 2 a numpy integer's repr names its type
        (``np.int64(3)``), which the hashed text must not see.
        """
        np = pytest.importorskip("numpy")
        for root in (np.int64(3), np.int32(3), np.uint8(3), np.array([3])[0]):
            assert derive_seed(root, "node", 1) == derive_seed(3, "node", 1)
        assert derive_rng(np.int64(3), "x").random() == derive_rng(3, "x").random()


class TestDeriveRng:
    def test_same_scope_same_stream(self):
        a = derive_rng(3, "x")
        b = derive_rng(3, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_scope_different_stream(self):
        a = derive_rng(3, "x")
        b = derive_rng(3, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_returns_random_instance(self):
        assert isinstance(derive_rng(0, "z"), random.Random)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, "node", 7)) == 7

    def test_independent(self):
        rngs = spawn_rngs(0, "node", 3)
        draws = [rng.random() for rng in rngs]
        assert len(set(draws)) == 3

    def test_matches_derive(self):
        spawned = spawn_rngs(5, "p", 2)
        assert spawned[1].random() == derive_rng(5, "p", 1).random()


class TestSampleDistinct:
    def test_distinct(self):
        rng = random.Random(1)
        sample = sample_distinct(rng, range(100), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_subset_of_population(self):
        rng = random.Random(2)
        sample = sample_distinct(rng, range(20), 20)
        assert sorted(sample) == list(range(20))
