"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest

from repro.assignment import identical, shared_core
from repro.cli import main, write_report
from repro.sim import Network


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need one-off randomness."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_network() -> Network:
    """8 nodes, 4 channels each, overlap 2 — fast enough for any test."""
    generator = random.Random(42)
    assignment = shared_core(8, 4, 2, generator).shuffled_labels(generator)
    return Network.static(assignment)


@pytest.fixture
def single_channel_network() -> Network:
    """Everyone on one shared channel: the most contended possible world."""
    return Network.static(identical(6, 1))


@pytest.fixture
def medium_network() -> Network:
    """24 nodes, 8 channels, overlap 2 — for integration tests."""
    generator = random.Random(99)
    assignment = shared_core(24, 8, 2, generator).shuffled_labels(generator)
    return Network.static(assignment)


@pytest.fixture(scope="session")
def cli_report(tmp_path_factory) -> tuple[int, Path, str]:
    """One ``repro report --fast --trials 2`` pass: exit code, file, stdout.

    Regenerating every experiment is the suite's most expensive step,
    so the tests that only read a default-seed report share this pass.
    """
    path = tmp_path_factory.mktemp("cli-report") / "out.md"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["report", "--fast", "--trials", "2", "--output", str(path)])
    return code, path, stdout.getvalue()


@pytest.fixture(scope="session")
def report_pair(tmp_path_factory) -> tuple[Path, Path]:
    """Two independent ``write_report(trials=2, seed=3, fast=True)`` passes."""
    directory = tmp_path_factory.mktemp("report-pair")
    paths = (directory / "a.md", directory / "b.md")
    for path in paths:
        write_report(str(path), trials=2, seed=3, fast=True)
    return paths
