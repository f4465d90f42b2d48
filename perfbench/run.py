"""The repo benchmark: run one workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 30 --trace 0

Workloads are ``reproduce``, ``scale`` and ``telemetry`` (README.md says
why each).  With ``--trace 0`` the last line is a JSON object carrying
the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``); with
``--trace 1`` it carries the per-layer metrics of a traced run, and a
Chrome trace is written to ``.perfbench/trace-<workload>.json``.  Lines
above it give the context (host, versions, reference loop) and the
workload's own figures, by name with their units.

This process stays on one CPU with all its children.  It starts fresh
workload processes that only set up (see :data:`SETUPS`), then one that
sets up and measures; the median of their drift-corrected set-up times
is ``setup_s``.  It imports nothing from ``repro``.
Scratch files go to a fresh directory under ``.perfbench/`` (ignored by
git, so ``obs.provenance`` still sees a clean tree) that is removed at
exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any

import refclock
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
OUTPUT = ROOT / ".perfbench"
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: How much longer than ``--seconds`` a run may take: its set-up
#: workers, the measuring worker's own set-up and its last pass.
OVERRUN_S = 140.0
#: Per ``--size``: the fewest set-ups in a run, and the seconds of
#: set-up-only workers to spend beyond them (a quick set-up is noisier,
#: so it gets more samples), up to :data:`MAX_SETUPS` set-ups.
SETUPS = {"full": (5, 3.0), "smoke": (1, 0.0)}
MAX_SETUPS = 15


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (missing program, crashed worker)."""


def _pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so the reference
    loop and the units see the same host state."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _git_stand_in(scratch: Path) -> Path | None:
    """A directory holding a stand-in ``git``, when git cannot name this checkout.

    ``repro.obs.provenance`` runs ``git rev-parse`` and ``git status`` at
    import time, and outside a git checkout its fallback imports the
    still-initializing ``repro`` package, so ``import repro`` fails.  For
    such a checkout this writes a script that answers ``rev-parse`` with
    a BLAKE2b digest of the sources and ``status`` with a clean tree; the
    caller puts its directory first on the workers' ``PATH``.  Inside a
    git checkout it returns ``None`` and the real ``git`` runs.
    """
    try:
        probe = subprocess.run(
            ["git", "-C", str(ROOT / "src" / "repro"), "rev-parse", "HEAD"],
            capture_output=True,
            timeout=10,
        )
        if probe.returncode == 0:
            return None
    except (OSError, subprocess.SubprocessError):
        pass
    sources = hashlib.blake2b(digest_size=6)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    stand_in = scratch / "bin"
    stand_in.mkdir()
    script = stand_in / "git"
    script.write_text(
        f'#!/bin/sh\ncase "$*" in *rev-parse*) echo {sources.hexdigest()} ;; esac\n',
        encoding="utf-8",
    )
    script.chmod(0o755)
    return stand_in


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "absent"


class Runner:
    """Spawns the workload processes of one benchmark run."""

    def __init__(self, args: argparse.Namespace, scratch: Path, started: float) -> None:
        self.args = args
        self.scratch = scratch
        self.deadline = started + args.seconds + OVERRUN_S
        self.env = workloads.child_env()
        stand_in = _git_stand_in(scratch)
        if stand_in is not None:
            self.env["PATH"] = str(stand_in) + os.pathsep + self.env.get("PATH", "")
        #: Every worker's standard error, for the message when one fails.
        self.errors = scratch / "worker.err"
        #: ``(spawn time, ready line)`` of every worker's set-up.
        self.setups: list[tuple[float, dict[str, Any]]] = []

    def _command(self, *extra: str) -> list[str]:
        args = self.args
        return [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--size", args.size,
            "--scratch", str(self.scratch),
            *extra,
        ]

    def _run_worker(self, *extra: str) -> None:
        """Run one worker to its end, keeping its set-up timings."""
        spawned = perf_counter()
        with open(self.errors, "a", encoding="utf-8") as errors:
            child = subprocess.Popen(
                self._command(*extra),
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=errors,
                text=True,
            )
        ready = child.stdout.readline()
        try:
            child.communicate(timeout=max(self.deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchmarkError(
                f"run exceeded --seconds {self.args.seconds:g} + {OVERRUN_S:.0f} s"
            ) from None
        if child.returncode != 0 or not ready:
            detail = self.errors.read_text(encoding="utf-8").strip()[-2000:]
            raise BenchmarkError(f"worker exited {child.returncode}:\n{detail}")
        self.setups.append((spawned, json.loads(ready)))

    def run(self) -> dict[str, Any]:
        """Set up several times (see :data:`SETUPS`), then set up once
        more and measure; return the measuring worker's result."""
        fewest, budget = SETUPS[self.args.size]
        probes_started = perf_counter()
        while len(self.setups) < fewest - 1 or (
            perf_counter() - probes_started < budget and len(self.setups) < MAX_SETUPS - 1
        ):
            self._run_worker("--setup-only")
        result_path = self.scratch / "result.json"
        extra = ["--result", str(result_path)]
        if self.args.trace:
            extra += ["--trace", "--trace-out", str(OUTPUT / f"trace-{self.args.workload}.json")]
        self._run_worker(*extra)
        with open(result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def setup_median(self, phase: str | None = None) -> float:
        """Median drift-corrected set-up time over every worker.

        A worker's set-up runs from its spawn to its ready line:
        interpreter start-up and imports (*phase* ``"import"``, corrected
        at the import's host speed), then input generation (``"inputs"``).
        """
        values = []
        for spawned, ready in self.setups:
            imports, inputs = ready["import"], ready["inputs"]
            import_s = (ready["started"] - spawned + imports["elapsed"]) * (
                refclock.NOMINAL_SAMPLE_S / imports["speed"]
            )
            inputs_s = inputs["elapsed"] * refclock.NOMINAL_SAMPLE_S / inputs["speed"]
            values.append({"import": import_s, "inputs": inputs_s, None: import_s + inputs_s}[phase])
        return statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(SETUPS), default="full",
        help="smoke shrinks every workload to run in seconds (self-test)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cpu = _pin_to_one_cpu()
    OUTPUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT))
    runner = Runner(args, scratch, started)
    try:
        result = runner.run()
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUTPUT.rmdir()  # only when empty: a trace file stays
        except OSError:
            pass

    reference = result["reference"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}"
    )
    print(
        f"context: cpu={_cpu_model()!r} nproc={os.cpu_count()} pinned_cpu={cpu} "
        f"python={platform.python_version()} numpy={_numpy_version()} "
        f"code_version={result['code_version']}"
    )
    print(
        f"reference loop: fastest {reference['fastest_s'] * 1e3:.3f} ms, "
        f"median {reference['median_s'] * 1e3:.3f} ms over {reference['samples']} samples"
    )
    print(
        f"passes: {result['passes']} over {result['units']} units; "
        f"{result['failed']} of {result['attempted']} operations failed"
    )
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"fail_ratio {result['failed'] / result['attempted']:g} 1")

    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["setup.import_s"] = runner.setup_median("import")
        metrics["setup.inputs_s"] = runner.setup_median("inputs")
        for line in result["layer_lines"]:
            print(line)
        print(f"chrome trace: {OUTPUT / f'trace-{args.workload}.json'}")
        names = tracing.per_layer_names()
        values = {name: {"value": metrics[name], "unit": _unit_of(name)} for name in names}
    else:
        metrics = {
            "setup_s": runner.setup_median(),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, (value, unit) in result["figures"].items():
            print(f"{name} {value:.6g} {unit}")
    for name, entry in values.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": values,
            }
        )
    )
    return 0


def _unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "tracing_overhead")):
        return "1"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
