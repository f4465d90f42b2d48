"""Command-line entry point: list and run the reproduction experiments.

Usage::

    repro-experiments list
    repro-experiments run E01 [--trials N] [--seed S] [--fast] [--jobs N] [--telemetry F]
    repro-experiments run all [--trials N] [--seed S] [--fast] [--jobs N] [--telemetry F]
    repro-experiments lint [paths ...] [--format json] [--select R4,R6]
    repro-experiments obs validate|summary|tail|anomalies telemetry.jsonl [...]
    repro-experiments obs diff A.jsonl B.jsonl
    repro-experiments obs export-trace --protocol cogcomp -o trace.json
    repro-experiments bench check [CANDIDATE.json] --history 'BENCH_*.json'
    repro-experiments sanitize E01 [--fast] [--checks hashseed,jobs,backend]

(Equivalently ``python -m repro ...``.  ``lint`` is also installed as
the standalone ``repro-lint`` console script (see :mod:`repro.lint`)
and ``obs`` as ``repro-obs`` (see :mod:`repro.obs`).  ``--telemetry``
appends one JSONL manifest per experiment to the given file.)
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Any, Sequence


def _version_string() -> str:
    """Version plus which engine backends this environment can run."""
    from repro import __version__
    from repro.sim.backends import available_backends

    described = ", ".join(
        name if reason is None else f"{name} (unavailable: {reason})"
        for name, reason in available_backends().items()
    )
    return f"repro {__version__} — backends: {described}"


# The argparse types of every verb (``repro.obs.cli`` and
# ``repro.sanitize`` import them): a value out of range is a usage error
# (exit 2), never a traceback.


def _non_negative(text: str) -> int:
    """An argparse type: an integer that is zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    """An argparse type: an integer that is one or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse type: a number above zero."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


#: The verbs another module declares and runs: name -> (module, help).
#: Each module has ``add_arguments(parser)`` and ``dispatch(args)``.
_MOUNTED_VERBS = {
    "obs": ("repro.obs.cli", "inspect telemetry files / export causal traces"),
    "sanitize": (
        "repro.sanitize",
        "dual-run determinism sanitizer: perturb hashseed/jobs/"
        "backend and bit-diff the captured tables and telemetry",
    ),
    "lint": ("repro.lint.cli", "check sources against the model-soundness rules"),
}


class _Parser(argparse.ArgumentParser):
    """The CLI's parser; ``--version`` builds its text only when passed."""

    @property
    def version(self) -> str:
        """What ``--version`` prints: argparse reads it when given no text."""
        return _version_string()


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """Build the argparse CLI for the command line *argv*.

    Every verb is listed with its help line, but of
    :data:`_MOUNTED_VERBS` only the one *argv* invokes gets its
    arguments, so ``repro run E01`` imports neither the obs CLI, the
    sanitizer nor the linter.
    """
    from repro.sim.backends import BACKEND_NAMES

    verb = next((arg for arg in argv if not arg.startswith("-")), None)

    parser = _Parser(
        prog="repro-experiments",
        description=(
            "Reproduction experiments for 'Efficient Communication in "
            "Cognitive Radio Networks' (PODC 2015)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        help="print the version and available engine backends",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment or 'all'")
    run_parser.add_argument("experiment", help="experiment id (e.g. E01) or 'all'")
    report_parser = subparsers.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report_parser.add_argument(
        "--output", default="experiments_report.md", help="report file path"
    )
    for command in (run_parser, report_parser):
        command.add_argument(
            "--trials", type=_positive, default=None, help="trials per row"
        )
        command.add_argument("--seed", type=int, default=0, help="root seed")
        command.add_argument(
            "--fast", action="store_true", help="shrunken sweeps (CI-sized)"
        )
        command.add_argument(
            "--jobs",
            type=_non_negative,
            default=1,
            metavar="N",
            help="worker processes for trial loops (0 = all cores); results "
            "are identical to --jobs 1",
        )
        command.add_argument(
            "--telemetry",
            default=None,
            metavar="FILE",
            help="append one JSONL manifest per experiment to FILE",
        )
        command.add_argument(
            "--backend",
            choices=BACKEND_NAMES,
            default=None,
            help="engine backend for all runs (default: exact); 'vector' "
            "needs numpy and transparently falls back per run when a "
            "configuration has no columnar form",
        )

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark-trajectory tools (regression gating)"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    check = bench_sub.add_parser(
        "check",
        help="fit per-benchmark baselines from BENCH history; "
        "exit 1 on CI-backed regression",
    )
    check.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="candidate datapoint (default: newest history datapoint)",
    )
    check.add_argument(
        "--history",
        action="append",
        default=None,
        metavar="GLOB",
        help="history datapoint files/globs (default: BENCH_*.json); repeatable",
    )
    check.add_argument(
        "--threshold",
        type=_positive_float,
        default=0.25,
        help="allowed slowdown beyond the baseline CI (default: 0.25 = 25%%)",
    )
    check.add_argument(
        "--min-history",
        type=int,
        default=3,
        help="comparable datapoints needed to gate; fewer = warn-only",
    )
    check.add_argument(
        "--report", default=None, metavar="FILE", help="write the JSON report to FILE"
    )
    check.add_argument(
        "--json", action="store_true", help="print the JSON report instead of text"
    )

    for name, (module, help_text) in _MOUNTED_VERBS.items():
        verb_parser = subparsers.add_parser(name, help=help_text)
        if name == verb:
            importlib.import_module(module).add_arguments(verb_parser)
    return parser


def _run_experiment(
    spec: Any,
    trials: int | None,
    seed: int,
    fast: bool,
    telemetry: object | None = None,
) -> tuple[Any, float]:
    """Run one experiment: its table and the seconds it took.

    ``run`` and ``report`` both come here, so given *telemetry* both
    write the same ``kind="experiment"`` record: it embeds a metrics
    registry that counts the experiment and a resource-sampler delta.
    """
    start = time.perf_counter()
    if telemetry is not None:
        from repro.experiments.harness import run_with_telemetry
        from repro.obs.metrics import MetricsRegistry, ResourceSampler

        registry = MetricsRegistry()
        registry.counter(
            "experiments_run", "experiments executed", labels=("experiment",)
        ).inc(experiment=spec.experiment_id)
        table = run_with_telemetry(
            spec,
            telemetry,
            trials=trials,
            seed=seed,
            fast=fast,
            metrics=registry,
            resources=ResourceSampler().start(),
        )
    else:
        kwargs: dict[str, object] = {"seed": seed, "fast": fast}
        if trials is not None:
            kwargs["trials"] = trials
        table = spec.run(**kwargs)
    return table, time.perf_counter() - start


def _run_one(
    spec: Any,
    trials: int | None,
    seed: int,
    fast: bool,
    telemetry: object | None = None,
) -> None:
    table, elapsed = _run_experiment(spec, trials, seed, fast, telemetry)
    print(table.render())
    print(f"[{spec.experiment_id} finished in {elapsed:.1f}s]\n")


def _open_sink(path: str | None) -> object | None:
    """A :class:`repro.obs.telemetry.TelemetrySink` for *path*, if given."""
    if path is None:
        return None
    from repro.obs.telemetry import TelemetrySink

    return TelemetrySink(path)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    if args.command == "list":
        from repro.experiments.registry import load_all

        for experiment_id, spec in load_all().items():
            print(f"{experiment_id}  {spec.title}")
            print(f"      {spec.claim}")
        return 0
    if args.command in ("run", "report") and args.jobs != 1:
        from repro.perf import set_default_jobs

        set_default_jobs(args.jobs)
    if args.command in ("run", "report") and args.backend is not None:
        from repro.sim.backends import set_default_backend

        set_default_backend(args.backend)
    if args.command == "run":
        from repro.experiments.registry import get, load_all

        if args.experiment.lower() == "all":
            specs = list(load_all().values())
        else:
            try:
                specs = [get(args.experiment.upper())]
            except KeyError as error:
                print(f"repro run: error: {error.args[0]}", file=sys.stderr)
                return 2
        sink = _open_sink(args.telemetry)
        try:
            for spec in specs:
                _run_one(spec, args.trials, args.seed, args.fast, sink)
        finally:
            if sink is not None:
                sink.close()  # type: ignore[attr-defined]
        return 0
    if args.command == "report":
        sink = _open_sink(args.telemetry)
        try:
            write_report(
                args.output,
                trials=args.trials,
                seed=args.seed,
                fast=args.fast,
                telemetry=sink,
            )
        finally:
            if sink is not None:
                sink.close()  # type: ignore[attr-defined]
        print(f"wrote {args.output}")
        return 0
    if args.command in _MOUNTED_VERBS:
        module = importlib.import_module(_MOUNTED_VERBS[args.command][0])
        return module.dispatch(args)
    if args.command == "bench":
        from repro.obs.regress import bench_check

        return bench_check(
            args.candidate,
            args.history if args.history else ["BENCH_*.json"],
            threshold=args.threshold,
            min_history=args.min_history,
            report_path=args.report,
            as_json=args.json,
        )
    return 2


def write_report(
    path: str,
    *,
    trials: int | None = None,
    seed: int = 0,
    fast: bool = False,
    telemetry: object | None = None,
) -> None:
    """Run every registered experiment and write one markdown report.

    The report records the exact invocation so any table can be
    regenerated in isolation.  When *telemetry* (a
    :class:`repro.obs.telemetry.TelemetrySink`) is given, each
    experiment also emits one manifest record, the same one ``run``
    writes.
    """
    from repro.experiments.registry import load_all

    sections: list[str] = [
        "# Reproduction report",
        "",
        f"Generated by `repro-experiments report` (seed={seed}, "
        f"trials={'default' if trials is None else trials}, fast={fast}).",
        "",
    ]
    for experiment_id, spec in load_all().items():
        table, elapsed = _run_experiment(spec, trials, seed, fast, telemetry)
        sections.append(f"## {experiment_id} — {spec.title}")
        sections.append("")
        sections.append(f"Claim: {spec.claim}.")
        sections.append("")
        sections.append("```")
        sections.append(table.render().rstrip())
        sections.append("```")
        sections.append("")
        sections.append(f"_Runtime: {elapsed:.1f}s._")
        sections.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(sections))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
