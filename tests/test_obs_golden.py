"""Golden outputs of the ``repro obs`` reading verbs.

Every case runs one verb in-process over the committed telemetry
fixtures in ``tests/data/obs/`` and compares its exact stdout and exit
code with ``tests/data/obs/golden/<case>.txt``.  The verbs run from a
scratch directory that holds a copy of the fixtures under ``obs/``, so
the paths they echo are the relative ones given on the command line
and need no rewriting.  Cases run in table order: ``ingest`` fills the
store that ``reingest`` and the ``query`` cases read.

Set ``REPRO_GOLDEN_UPDATE=1`` to rewrite the golden files from the
current code instead of comparing (after regenerating the fixtures with
``tests/data/obs/make_fixtures.py``, say).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from repro.obs.cli import main as obs_main

DATA = Path(__file__).resolve().parent / "data" / "obs"
GOLDEN = DATA / "golden"
UPDATE = os.environ.get("REPRO_GOLDEN_UPDATE") == "1"

_SHARDS = ["obs/runs.jsonl", "obs/second.jsonl", "obs/orphans.jsonl", "obs/malformed.jsonl"]

#: ``(case name, obs arguments)`` in run order.
CASES = [
    ("validate", ["validate", "obs/runs.jsonl", "obs/second.jsonl", "obs/orphans.jsonl"]),
    ("validate-glob", ["validate", "obs/*.jsonl"]),
    ("validate-missing", ["validate", "obs/absent.jsonl"]),
    ("summary", ["summary", "obs/runs.jsonl", "obs/second.jsonl"]),
    ("summary-metrics", ["summary", "obs/runs.jsonl", "--metrics"]),
    ("summary-kind", ["summary", "obs/runs.jsonl", "--kind", "campaign"]),
    ("summary-kind-none", ["summary", "obs/second.jsonl", "--kind", "experiment"]),
    ("summary-empty", ["summary", "obs/empty.jsonl"]),
    ("summary-missing", ["summary", "obs/absent.jsonl"]),
    ("tail", ["tail", "obs/runs.jsonl", "-n", "3"]),
    ("tail-metrics", ["tail", "obs/runs.jsonl", "-n", "2", "--metrics"]),
    ("tail-kind", ["tail", "obs/runs.jsonl", "obs/second.jsonl", "--kind", "anomaly"]),
    ("tail-kind-none", ["tail", "obs/orphans.jsonl", "--kind", "campaign"]),
    ("tail-zero", ["tail", "obs/runs.jsonl", "-n", "0"]),
    ("anomalies", ["anomalies", "obs/runs.jsonl", "obs/orphans.jsonl"]),
    ("anomalies-none", ["anomalies", "obs/malformed.jsonl"]),
    ("anomalies-empty", ["anomalies", "obs/empty.jsonl"]),
    ("diff", ["diff", "obs/runs.jsonl", "obs/second.jsonl"]),
    ("diff-json", ["diff", "obs/runs.jsonl", "obs/second.jsonl", "--json"]),
    ("diff-self", ["diff", "obs/runs.jsonl", "obs/runs.jsonl"]),
    ("explain", ["explain", "obs/runs.jsonl"]),
    ("explain-rule-index", ["explain", "obs/runs.jsonl", "--rule", "slot-budget", "--index", "1"]),
    ("explain-orphans", ["explain", "obs/orphans.jsonl"]),
    ("explain-none", ["explain", "obs/malformed.jsonl"]),
    ("follow", ["follow", "obs/runs.jsonl", "--idle-exit", "0"]),
    ("follow-malformed", ["follow", "obs/malformed.jsonl", "--idle-exit", "0"]),
    ("ingest-strict", ["ingest", "obs/malformed.jsonl", "--store", "store", "--strict"]),
    ("ingest", ["ingest", *_SHARDS, "--store", "store"]),
    ("reingest", ["ingest", "obs/*.jsonl", "--store", "store"]),
    ("query-group", ["query", "store", "--group-by", "protocol,n"]),
    ("query-json", ["query", "store", "--group-by", "kind", "--json"]),
    ("query-filters", ["query", "store", "protocol=cogcast", "seed>=1", "--group-by", "seed"]),
    ("query-metric", ["query", "store", "--stat", "metric:sim_deliveries", "--group-by", "protocol"]),
    ("query-campaign", ["query", "store", "--kind", "campaign", "--group-by", "n", "--stat", "mean"]),
    ("query-missing-store", ["query", "absent", "--group-by", "protocol"]),
]


def _transcript(argv: list[str], out: str, code: int) -> str:
    """One case's golden text: command line, stdout, exit code."""
    return f"$ repro obs {' '.join(argv)}\n{out}[exit {code}]\n"


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory) -> dict[str, str]:
    """Run every case in order from a scratch copy of the fixtures."""
    root = tmp_path_factory.mktemp("golden")
    shutil.copytree(DATA, root / "obs", ignore=shutil.ignore_patterns("golden", "*.py"))
    results: dict[str, str] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for name, argv in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = obs_main(argv)
            results[name] = _transcript(argv, out.getvalue(), code)
    if UPDATE:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in results.items():
            (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
    return results


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_golden_output(name, transcripts):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcripts[name] == expected


def test_every_golden_file_has_a_case():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(
        name for name, _ in CASES
    )
