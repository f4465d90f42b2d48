"""The ``repro obs`` CLI: inspect telemetry and export causal traces.

Usage (also installed as the standalone ``repro-obs`` console script)::

    repro-obs validate telemetry.jsonl [...]   # schema-check every line
    repro-obs summary 'shard*.jsonl' [...]     # grouped digest (globs ok)
    repro-obs summary telemetry.jsonl --metrics  # + embedded metric snapshots
    repro-obs tail telemetry.jsonl -n 5        # last records, pretty-printed
    repro-obs tail telemetry.jsonl --kind run  # only one record kind
    repro-obs anomalies telemetry.jsonl [...]  # watchdog anomalies; exit 1 if any
    repro-obs diff A.jsonl B.jsonl             # per-metric delta report
    repro-obs export-trace --protocol cogcomp --n 12 --c 6 --k 2 \\
        --seed 0 -o trace.json [--spans spans.json]
    repro-obs ingest shard*.jsonl --store runstore   # content-addressed index
    repro-obs query runstore protocol=cogcast n>=8 \\
        --group-by protocol --stat slots [--json]
    repro-obs follow telemetry.jsonl --idle-exit 5   # live-tail + validate
    repro-obs explain telemetry.jsonl [--rule slot-budget]  # anomaly root cause

File arguments are shell-glob expanded here too (quote them to defer
to this expansion), so campaign shards like ``telemetry.worker*.jsonl``
summarize as one stream.  ``diff`` classes every series as protocol
(deterministic; any real difference is *significant* and fails the
diff) or timing (reported, never significant) — see
:mod:`repro.obs.regress`.

``export-trace`` runs one seeded protocol with a
:class:`~repro.obs.spans.SpanProbe` attached and writes the resulting
Chrome-trace / Perfetto JSON timeline (load it at ``ui.perfetto.dev``
or ``chrome://tracing``).  Its network needs ``--n >= 2`` and
``1 <= --k <= --c``.

Exit status: 0 on success, 1 when validation finds problems, a file is
unreadable or empty, or anomalies exist, 2 on usage errors (argparse,
or ``export-trace`` sizes no network can have).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.cli import _non_negative, _positive
from repro.obs.telemetry import (
    decode_line,
    expand_paths,
    read_telemetry,
    summarize_records,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the obs subcommands to *parser*.

    Shared between the standalone ``repro-obs`` parser and the ``obs``
    verb of the main ``repro-experiments`` CLI, so the two surfaces
    cannot drift apart.
    """
    sub = parser.add_subparsers(dest="obs_command", required=True)
    for name, help_text in (
        ("validate", "schema-check every record; exit 1 on problems"),
        ("summary", "grouped digest of runs / experiments / campaigns"),
        ("tail", "pretty-print the newest records"),
        ("anomalies", "list watchdog anomaly records; exit 1 when any exist"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument(
            "files", nargs="+", help="telemetry JSONL files (globs expanded)"
        )
        if name == "tail":
            command.add_argument(
                "-n", "--limit", type=_non_negative, default=10, help="records to show"
            )
        if name in ("summary", "tail"):
            command.add_argument(
                "--metrics",
                action="store_true",
                help="also render embedded metric snapshots",
            )
            command.add_argument(
                "--kind",
                choices=("run", "experiment", "campaign", "anomaly"),
                default=None,
                help="only records of this kind",
            )
    diff = sub.add_parser(
        "diff",
        help="per-metric delta report between two telemetry files; "
        "exit 1 on significant protocol deltas",
    )
    diff.add_argument("file_a", help="baseline telemetry JSONL file")
    diff.add_argument("file_b", help="treatment telemetry JSONL file")
    diff.add_argument(
        "--resamples", type=_positive, default=1000, help="bootstrap resamples"
    )
    diff.add_argument(
        "--json", action="store_true", help="print the structured JSON report"
    )
    diff.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE",
    )
    export = sub.add_parser(
        "export-trace",
        help="run a seeded protocol and write a Chrome-trace/Perfetto timeline",
    )
    export.add_argument(
        "--protocol",
        choices=("cogcast", "cogcomp"),
        default="cogcomp",
        help="protocol to run (default: cogcomp)",
    )
    export.add_argument(
        "--n", type=_positive, default=12, help="number of nodes, at least 2"
    )
    export.add_argument("--c", type=_positive, default=6, help="channels per node")
    export.add_argument(
        "--k", type=_positive, default=2, help="pairwise overlap, at most --c"
    )
    export.add_argument("--seed", type=int, default=0, help="run seed")
    export.add_argument(
        "-o", "--output", required=True, metavar="FILE", help="trace JSON path"
    )
    export.add_argument(
        "--spans",
        default=None,
        metavar="FILE",
        help="also write the compact span-summary JSON to FILE",
    )
    ingest = sub.add_parser(
        "ingest",
        help="index telemetry shards into a content-addressed run store",
    )
    ingest.add_argument(
        "files", nargs="+", help="telemetry JSONL shards (globs expanded)"
    )
    ingest.add_argument(
        "--store",
        default="runstore",
        metavar="DIR",
        help="run-store directory (default: runstore)",
    )
    ingest.add_argument(
        "--strict",
        action="store_true",
        help="fail on a malformed shard line instead of skipping it",
    )
    query = sub.add_parser(
        "query",
        help="filter, group, and aggregate a run store's manifest",
    )
    query.add_argument("store", help="run-store directory")
    query.add_argument(
        "filters",
        nargs="*",
        help="field filters like protocol=cogcast n>=1000 backend=vector",
    )
    query.add_argument(
        "--kind",
        choices=("run", "experiment", "campaign"),
        default=None,
        help="only stored runs of this kind",
    )
    query.add_argument(
        "--group-by",
        default=None,
        metavar="FIELDS",
        help="comma-separated group-by fields (e.g. protocol,n)",
    )
    query.add_argument(
        "--stat",
        default="slots",
        metavar="FIELD",
        help="numeric field (or metric:<name>) to aggregate (default: slots)",
    )
    query.add_argument(
        "--json", action="store_true", help="print rows as JSON instead of a table"
    )
    follow = sub.add_parser(
        "follow",
        help="live-tail a growing telemetry file, validating incrementally",
    )
    follow.add_argument("file", help="telemetry JSONL file to follow")
    follow.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="S",
        help="poll interval in seconds (default: 0.2)",
    )
    follow.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="S",
        help="stop after S seconds with no new bytes (default: follow forever)",
    )
    follow.add_argument(
        "--max-records",
        type=_non_negative,
        default=None,
        metavar="N",
        help="stop after N records",
    )
    explain = sub.add_parser(
        "explain",
        help="join watchdog anomalies to their run's span tree and metrics",
    )
    explain.add_argument("file", help="telemetry JSONL file holding the anomaly")
    explain.add_argument(
        "--rule", default=None, help="only anomalies of this watchdog rule"
    )
    explain.add_argument(
        "--index",
        type=_non_negative,
        default=None,
        metavar="N",
        help="explain only the N-th matching anomaly (0-based)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-obs`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect repro telemetry (JSONL run manifests)",
    )
    add_arguments(parser)
    return parser


def _read_all(
    files: Sequence[str], kind: str | None = None
) -> list[dict[str, Any]] | None:
    """Every record across *files* (globs expanded), only *kind* if set.

    Prints why and returns ``None`` when a file is unreadable, the files
    hold no records, or none of them is of *kind*.
    """
    records: list[dict[str, Any]] = []
    for path in expand_paths(files):
        try:
            records.extend(read_telemetry(path, strict=False))
        except OSError as error:
            print(f"{path}: {error.strerror or error}", file=sys.stderr)
            return None
    if not records:
        print("no telemetry records in " + ", ".join(files))
        return None
    if kind is None:
        return records
    records = [record for record in records if record.get("kind") == kind]
    if not records:
        print(f"no matching records of kind {kind!r} in " + ", ".join(files))
        return None
    return records


def _metrics_digest(records: Sequence[dict[str, Any]]) -> str:
    """Render the merged embedded metric snapshots of *records*.

    Merges every record's ``metrics`` field with
    :func:`repro.obs.metrics.merge_snapshots` and renders the result in
    Prometheus text format — the same bytes a ``/metrics`` endpoint
    would serve for this telemetry.
    """
    from repro.obs.metrics import merge_snapshots, render_prometheus

    snapshots = [
        record["metrics"] for record in records if record.get("metrics") is not None
    ]
    if not snapshots:
        return "no metric snapshots embedded"
    merged = merge_snapshots(snapshots)
    return (
        f"metrics ({len(snapshots)} snapshots merged):\n"
        + render_prometheus(merged)
    )


def validate_files(files: Sequence[str]) -> int:
    """Validate every record in every file; print problems; 0 iff clean."""
    total = 0
    problems_found = 0
    for path in expand_paths(files):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError as error:
            print(f"{path}: {error.strerror or error}", file=sys.stderr)
            problems_found += 1
            continue
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            for problem in decode_line(line)[1]:
                print(f"{path}:{number}: {problem}")
                problems_found += 1
    if problems_found:
        print(f"{problems_found} problems in {total} records")
        return 1
    print(f"{total} records valid")
    return 0


def summarize_files(
    files: Sequence[str], *, metrics: bool = False, kind: str | None = None
) -> int:
    """Print a digest of all records across *files*; 0 iff any exist.

    With ``metrics=True`` the digest is followed by the merged embedded
    metric snapshots in Prometheus text format.  With *kind* set, only
    records of that kind are digested — zero matches prints a one-line
    "no matching records" message and exits 1.
    """
    records = _read_all(files, kind)
    if records is None:
        return 1
    print(summarize_records(records))
    if metrics:
        print(_metrics_digest(records))
    return 0


def tail_files(
    files: Sequence[str],
    limit: int,
    *,
    metrics: bool = False,
    kind: str | None = None,
) -> int:
    """Pretty-print the newest *limit* records across *files*.

    With ``metrics=True`` each tailed record that embeds a metrics
    snapshot is followed by that snapshot rendered as Prometheus text.
    With *kind* set, only records of that kind are tailed — zero
    matches prints a one-line "no matching records" message and exits 1.
    """
    records = _read_all(files, kind)
    if records is None:
        return 1
    for record in records[len(records) - limit :]:
        print(json.dumps(record, sort_keys=True))
        if metrics and record.get("metrics") is not None:
            from repro.obs.metrics import render_prometheus

            print(render_prometheus(record["metrics"]))
    return 0


def diff_files_cli(
    file_a: str,
    file_b: str,
    *,
    resamples: int = 1000,
    as_json: bool = False,
    report_path: str | None = None,
) -> int:
    """Diff two telemetry files; exit 1 on significant protocol deltas."""
    from repro.obs.regress import diff_files

    try:
        report = diff_files(file_a, file_b, resamples=resamples)
    except OSError as error:
        print(f"{error.filename or file_a}: {error.strerror or error}", file=sys.stderr)
        return 1
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    if as_json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        print(report.render())
    return report.exit_code


def anomalies_files(files: Sequence[str]) -> int:
    """Print every ``kind="anomaly"`` record; exit 0 iff there are none.

    CI runs this against smoke telemetry: a watchdog anomaly (or an
    empty/unreadable file) fails the build.
    """
    records = _read_all(files)
    if records is None:
        return 1
    anomalies = [record for record in records if record.get("kind") == "anomaly"]
    if not anomalies:
        print(f"no anomalies in {len(records)} records")
        return 0
    for record in anomalies:
        protocol = record.get("protocol")
        origin = f" protocol={protocol}" if protocol else ""
        print(
            f"[{record['rule']}] seed={record['seed']}{origin} "
            f"slot={record['slot']}: {record['message']}"
        )
    print(f"{len(anomalies)} anomalies in {len(records)} records")
    return 1


def export_trace(
    *,
    protocol: str,
    n: int,
    c: int,
    k: int,
    seed: int,
    output: str,
    spans_path: str | None = None,
) -> int:
    """Run one seeded protocol with a span probe; write its trace JSON.

    COGCAST runs to the Theorem 4 budget; COGCOMP aggregates the values
    ``1..n`` with its default timetable.  Protocol modules are imported
    here, not at module load, so telemetry-only invocations stay light.
    """
    from repro.analysis.theory import cogcast_slot_bound
    from repro.assignment import shared_core
    from repro.core.runners import run_data_aggregation, run_local_broadcast
    from repro.obs.export import write_chrome_trace
    from repro.obs.spans import SpanProbe
    from repro.sim.channels import Network
    from repro.sim.rng import derive_rng

    network = Network.static(shared_core(n, c, k, derive_rng(seed, "export-trace")))
    probe = SpanProbe()
    if protocol == "cogcast":
        run_local_broadcast(
            network,
            seed=seed,
            max_slots=cogcast_slot_bound(n, c, k),
            spans=probe,
        )
    else:
        values = [float(node + 1) for node in range(n)]
        run_data_aggregation(network, values, seed=seed, spans=probe)
    events = write_chrome_trace(
        output, probe, trace_name=f"{protocol} n={n} c={c} k={k} seed={seed}"
    )
    print(f"wrote {events} trace events to {output}")
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(probe.summary(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote span summary to {spans_path}")
    return 0


def ingest_files(files: Sequence[str], store_dir: str, *, strict: bool = False) -> int:
    """Index telemetry shards into the run store at *store_dir*.

    Prints the ingest report (new runs, deduplications, attached
    anomalies); exits 1 only when a shard is unreadable or — with
    ``strict=True`` — malformed.
    """
    from repro.obs.store import RunStore
    from repro.obs.telemetry import TelemetryError

    store = RunStore(store_dir)
    try:
        report = store.ingest(expand_paths(files), strict=strict)
    except (OSError, TelemetryError) as error:
        print(str(error), file=sys.stderr)
        return 1
    print(f"{report.render()} into {store_dir}")
    return 0


def query_store_cli(
    store_dir: str,
    filter_tokens: Sequence[str],
    *,
    kind: str | None = None,
    group_by: str | None = None,
    stat: str = "slots",
    as_json: bool = False,
) -> int:
    """Run one store query and print its rows (table or JSON).

    Output is deterministic — the same store and query produce
    bit-identical bytes across invocations — so query output can be
    diffed or committed as a regression fixture.
    """
    from repro.obs.query import (
        parse_filters,
        query_rows_json,
        render_rows,
        run_query,
    )
    from repro.obs.store import RunStore
    from repro.obs.telemetry import TelemetryError

    try:
        filters = parse_filters(filter_tokens)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    fields = [f for f in (group_by or "").split(",") if f]
    try:
        rows = run_query(
            RunStore(store_dir),
            filters=filters,
            kind=kind,
            group_by=fields,
            stat=stat,
        )
    except (OSError, TelemetryError) as error:
        print(str(error), file=sys.stderr)
        return 1
    if as_json:
        print(query_rows_json(rows))
    else:
        print(render_rows(rows, stat=stat))
    return 0


def follow_cli(
    path: str,
    *,
    poll_s: float = 0.2,
    idle_exit_s: float | None = None,
    max_records: int | None = None,
) -> int:
    """Live-tail *path*; exit 1 when anomalies or invalid lines appeared."""
    from repro.obs.query import follow_file

    return follow_file(
        path,
        poll_s=poll_s,
        idle_exit_s=idle_exit_s,
        max_records=max_records,
    )


def explain_file(
    path: str, *, rule: str | None = None, index: int | None = None
) -> int:
    """Print the causal context report for a telemetry file's anomalies."""
    from repro.obs.query import explain_records

    try:
        records = read_telemetry(path, strict=False)
    except OSError as error:
        print(f"{path}: {error.strerror or error}", file=sys.stderr)
        return 1
    report, code = explain_records(records, rule=rule, index=index)
    print(report)
    return code


def dispatch(args: argparse.Namespace) -> int:
    """Route parsed obs arguments to their subcommand implementation."""
    command = args.obs_command
    if command == "validate":
        return validate_files(args.files)
    if command == "summary":
        return summarize_files(args.files, metrics=args.metrics, kind=args.kind)
    if command == "tail":
        return tail_files(
            args.files, args.limit, metrics=args.metrics, kind=args.kind
        )
    if command == "anomalies":
        return anomalies_files(args.files)
    if command == "ingest":
        return ingest_files(args.files, args.store, strict=args.strict)
    if command == "query":
        return query_store_cli(
            args.store,
            args.filters,
            kind=args.kind,
            group_by=args.group_by,
            stat=args.stat,
            as_json=args.json,
        )
    if command == "follow":
        return follow_cli(
            args.file,
            poll_s=args.poll,
            idle_exit_s=args.idle_exit,
            max_records=args.max_records,
        )
    if command == "explain":
        return explain_file(args.file, rule=args.rule, index=args.index)
    if command == "diff":
        return diff_files_cli(
            args.file_a,
            args.file_b,
            resamples=args.resamples,
            as_json=args.json,
            report_path=args.report,
        )
    if command == "export-trace":
        if args.n < 2 or args.k > args.c:
            print(
                "repro obs export-trace: error: need --n >= 2 and --k <= --c, "
                f"got n={args.n}, c={args.c}, k={args.k}",
                file=sys.stderr,
            )
            return 2
        return export_trace(
            protocol=args.protocol,
            n=args.n,
            c=args.c,
            k=args.k,
            seed=args.seed,
            output=args.output,
            spans_path=args.spans,
        )
    raise ValueError(f"unknown obs command {command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-obs`` console script."""
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
