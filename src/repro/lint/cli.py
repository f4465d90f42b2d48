"""The ``repro-lint`` command-line interface.

Usage::

    repro-lint [paths ...] [--format text|json|sarif]
               [--select R1,R4] [--ignore R6]
               [--baseline lint-baseline.json] [--update-baseline]
               [--prune-baseline]
    repro-lint --list-rules
    repro-lint --explain R7
    repro-lint effects MODULE:FUNC [--root src/repro]

(Equivalently ``python -m repro lint ...``, which mounts
:func:`add_arguments` and :func:`dispatch`.)  With no paths the linter
checks ``src/repro``.  Exit status: 0 clean, 1 findings (after baseline
subtraction), 2 usage error.

``effects`` dumps the inferred transitive effect signature of one
function — e.g. ``repro-lint effects repro.sim.engine:Engine.run`` —
with the witness chain that introduces each effect.

Importing this module loads no rule and no analysis: each command
imports what it runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

#: Default baseline location (repo root), used by ``--update-baseline``
#: when ``--baseline`` is not given explicitly.
DEFAULT_BASELINE = "lint-baseline.json"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the linter's arguments to *parser* (``repro-lint`` or ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint (default: src/repro); "
            "or the subcommand 'effects MODULE:FUNC'"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (e.g. R1,R4)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip (e.g. R6,R10)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline file of known findings; baselined findings are "
            "subtracted before reporting and do not affect the exit code"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "write the current findings to the baseline file "
            f"(--baseline, default {DEFAULT_BASELINE}) and exit 0"
        ),
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "drop baseline fingerprints the current findings no longer "
            "justify, rewrite the baseline file, report what was removed, "
            "and exit 0 — the ratchet's tightening move"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print one rule's full documentation and exit",
    )
    parser.add_argument(
        "--root",
        default="src/repro",
        metavar="PATH",
        help="file set the 'effects' subcommand analyses (default: src/repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis enforcing the PODC'15 model invariants: "
            "seeded randomness, no wall clock, no salted hashes, protocol "
            "isolation, frozen records, deterministic iteration, and the "
            "whole-program effect rules (parallel purity, RNG-stream "
            "discipline, cache-key purity, effect-signature drift, "
            "vector-export contracts, worker-shared state, float "
            "determinism)."
        ),
    )
    add_arguments(parser)
    return parser


def _split(spec: str | None) -> list[str] | None:
    if not spec:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def run(
    paths: Sequence[str],
    *,
    output_format: str = "text",
    select: str | None = None,
    ignore: str | None = None,
    baseline: str | None = None,
    update_baseline: bool = False,
    prune_baseline: bool = False,
) -> int:
    """Lint *paths* and print a report; returns the process exit code."""
    from repro.lint.baseline import (
        load_baseline,
        partition,
        prune,
        write_baseline,
        write_baseline_counts,
    )
    from repro.lint.reporters import render_json, render_sarif, render_text
    from repro.lint.runner import lint_paths

    if update_baseline and prune_baseline:
        print(
            "repro-lint: --update-baseline and --prune-baseline are "
            "mutually exclusive",
            file=sys.stderr,
        )
        return 2
    targets = list(paths) or ["src/repro"]
    missing = [target for target in targets if not Path(target).exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(targets, select=_split(select), ignore=_split(ignore))
    except (ValueError, FileNotFoundError) as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2

    baseline_path = baseline or (
        DEFAULT_BASELINE if (update_baseline or prune_baseline) else None
    )
    if prune_baseline:
        try:
            known = load_baseline(baseline_path)
        except (OSError, ValueError) as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2
        pruned, dropped = prune(known, findings)
        write_baseline_counts(baseline_path, pruned)
        removed = sum(dropped.values())
        print(
            f"repro-lint: pruned {removed} stale fingerprint occurrence"
            f"{'s' if removed != 1 else ''} from {baseline_path} "
            f"({len(pruned)} entr{'ies' if len(pruned) != 1 else 'y'} remain)"
        )
        for key in sorted(dropped):
            print(f"  dropped ({dropped[key]}x): {key}")
        return 0
    if update_baseline:
        write_baseline(baseline_path, findings)
        print(
            f"repro-lint: wrote {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} to {baseline_path}"
        )
        return 0

    known_count = 0
    if baseline_path is not None:
        try:
            known = load_baseline(baseline_path)
        except (OSError, ValueError) as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2
        findings, baselined = partition(findings, known)
        known_count = len(baselined)

    renderers = {"text": render_text, "json": render_json, "sarif": render_sarif}
    output = renderers[output_format](findings)
    print(output)
    if known_count and output_format == "text":
        print(
            f"(+ {known_count} baselined finding"
            f"{'s' if known_count != 1 else ''} not shown; "
            "shrink the baseline as they are fixed)"
        )
    return 1 if findings else 0


def list_rules() -> int:
    """Print every registered rule with the invariant it guards."""
    from repro.lint.registry import all_rules

    for rule_id, rule in all_rules().items():
        print(f"{rule_id}  {rule.title}")
        print(f"      {rule.invariant}")
    return 0


def explain(rule_id: str) -> int:
    """Print one rule's full documentation (its module docstring)."""
    from repro.lint.registry import all_rules

    rules = all_rules()
    rule = rules.get(rule_id.upper())
    if rule is None:
        print(
            f"repro-lint: unknown rule {rule_id!r}; known: {', '.join(rules)}",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.rule_id} — {rule.title}")
    print(f"invariant: {rule.invariant}")
    print()
    print(rule.explain())
    return 0


def effects_command(target: str, root: str = "src/repro") -> int:
    """Print the transitive effect signature of ``module:function``."""
    from repro.lint.analysis import build_project
    from repro.lint.findings import Finding
    from repro.lint.runner import iter_python_files, load_module

    try:
        files = iter_python_files([root])
    except FileNotFoundError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    if not files:
        print(f"repro-lint: no python files under {root}", file=sys.stderr)
        return 2
    modules = [load_module(path) for path in files]
    project = build_project(
        module for module in modules if not isinstance(module, Finding)
    )
    qualname = project.resolve_callable_qualname(target)
    if qualname is None:
        print(
            f"repro-lint: unknown function {target!r} "
            f"(expected MODULE:FUNC, e.g. repro.sim.engine:Engine.run)",
            file=sys.stderr,
        )
        return 2
    print(project.effects.describe(qualname))
    return 0


def dispatch(args: argparse.Namespace) -> int:
    """Run the linter from parsed *args* (``repro-lint`` or ``repro lint``)."""
    if args.list_rules:
        return list_rules()
    if args.explain is not None:
        return explain(args.explain)
    if args.paths and args.paths[0] == "effects":
        if len(args.paths) != 2:
            print(
                "repro-lint: usage: repro-lint effects MODULE:FUNC [--root PATH]",
                file=sys.stderr,
            )
            return 2
        return effects_command(args.paths[1], root=args.root)
    return run(
        args.paths,
        output_format=args.format,
        select=args.select,
        ignore=args.ignore,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
        prune_baseline=args.prune_baseline,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
