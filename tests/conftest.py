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
def shipped_project():
    """The whole-program analysis of ``src/repro``, built once per session.

    The analysis tests and the ``effects`` dumps read this one build.
    """
    from repro.lint.analysis import build_project
    from repro.lint.context import ModuleContext
    from repro.lint.runner import iter_python_files, load_module

    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    modules = [load_module(path) for path in iter_python_files([source])]
    return build_project(
        module for module in modules if isinstance(module, ModuleContext)
    )


@pytest.fixture(scope="session")
def cli_report(tmp_path_factory) -> tuple[int, Path, str, Path]:
    """One ``repro report --fast --trials 2 --telemetry`` pass.

    Returns the exit code, the report, stdout and the telemetry file.
    Regenerating every experiment is the suite's most expensive step,
    so the tests that only read a default-seed report share this pass.
    """
    directory = tmp_path_factory.mktemp("cli-report")
    path, telemetry = directory / "out.md", directory / "telemetry.jsonl"
    argv = ["report", "--fast", "--trials", "2", "--output", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--telemetry", str(telemetry)])
    return code, path, stdout.getvalue(), telemetry


@pytest.fixture(scope="session")
def report_pair(tmp_path_factory) -> tuple[Path, Path]:
    """Two independent ``write_report(trials=2, seed=3, fast=True)`` passes."""
    directory = tmp_path_factory.mktemp("report-pair")
    paths = (directory / "a.md", directory / "b.md")
    for path in paths:
        write_report(str(path), trials=2, seed=3, fast=True)
    return paths
