"""Import hygiene: each entry point loads only the layers it uses.

Every package but ``repro.lint.rules`` resolves its exports on first
use (one ``_EXPORTS`` table each), so importing a module loads only
what that module imports.  Every check runs in a fresh interpreter
with ``PYTHONPATH=src``, so nothing this test session has already
imported can hide a stray import.  The engine and the runners load
neither the observability stack, the experiment registry nor
``subprocess``; the protocol modules load neither the engine, a runner
nor the observability stack; an uninstrumented experiment run loads no
telemetry code; trace persistence does not load the runners; the
linter's parser loads no rule and no analysis; the ``repro`` parser
mounts only the verb it is given, so ``repro run E01`` loads neither
the obs CLI, the sanitizer nor the linter; and the obs read path (the
parser for ``obs query``, then the query, store and regression
modules) loads none of the engine, the protocols, the experiments, the
spans and watchdogs, the sanitizer, the linter or numpy, and of
``repro.analysis`` only the bootstrap, so it runs on the standard
library alone.  ``repro --version`` names the backends that can run
here without loading a kernel or numpy.
"""

from __future__ import annotations

import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SIMULATION_FORBIDS = ("repro.obs", "repro.experiments", "subprocess")

LINT_LAYERS = ("repro.lint.rules", "repro.lint.analysis", "repro.lint.runner")

#: Every ``repro.analysis`` module but the bootstrap ``obs diff`` uses.
ANALYSIS_BUT_BOOTSTRAP = tuple(
    f"repro.analysis.{info.name}"
    for info in pkgutil.iter_modules([str(ROOT / "src" / "repro" / "analysis")])
    if info.name != "bootstrap"
)

#: ``name -> (code run in a fresh interpreter, modules it must not load)``;
#: a forbidden name covers its submodules too.
CASES = {
    "sim-engine": ("import repro.sim.engine", SIMULATION_FORBIDS),
    "core-runners": ("import repro.core.runners", SIMULATION_FORBIDS),
    "protocol-modules": (
        "import importlib, pkgutil, repro.baselines, repro.core\n"
        "for package in (repro.core, repro.baselines):\n"
        "    for info in pkgutil.iter_modules(package.__path__):\n"
        "        if info.name != 'runners':\n"
        "            importlib.import_module(f'{package.__name__}.{info.name}')",
        (
            "repro.sim.engine",
            "repro.core.runners",
            "repro.baselines.runners",
            "repro.obs",
        ),
    ),
    "experiment-run": (
        "from repro.experiments import registry\n"
        "registry.get('E01').run(trials=1, fast=True)",
        ("repro.obs", "repro.perf.merge"),
    ),
    "lint-parser": (
        "import repro.lint.cli\nrepro.lint.cli.build_parser()",
        LINT_LAYERS,
    ),
    "sim-persistence": (
        "import repro.sim.persistence",
        ("repro.core.runners", "repro.obs"),
    ),
    "run-parser": (
        "import repro.cli\nrepro.cli.build_parser(['run', 'E01'])",
        ("repro.obs", "repro.sanitize", "repro.lint"),
    ),
    "obs-read-path": (
        "import repro.cli\n"
        "repro.cli.build_parser(['obs', 'query'])\n"
        "import repro.obs.query, repro.obs.store, repro.obs.regress",
        (
            "repro.sim.engine",
            "repro.core",
            "repro.experiments",
            "repro.obs.spans",
            "repro.obs.watchdog",
            "repro.sanitize",
            "repro.lint",
            "numpy",
            *ANALYSIS_BUT_BOOTSTRAP,
        ),
    ),
    "version": (
        "import repro.cli\nrepro.cli._version_string()",
        ("repro.sim.engine", "repro.sim.backends.vector", "numpy"),
    ),
}


def loaded_modules(code: str) -> list[str]:
    """The names in ``sys.modules`` after *code* runs in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_loads_only_its_layers(case):
    code, forbidden = CASES[case]
    stray = [
        module
        for module in loaded_modules(code)
        if any(module == name or module.startswith(name + ".") for name in forbidden)
    ]
    assert stray == []


def test_version_flag_prints_backends(capsys):
    from repro.cli import _version_string, main

    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert " ".join(capsys.readouterr().out.split()) == _version_string()
