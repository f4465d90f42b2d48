"""Query, follow, and explain: the cross-run interrogation plane.

Three consumers of the telemetry the run store indexes:

- :func:`run_query` filters a :class:`repro.obs.store.RunStore`
  manifest with ``field=value`` / ``field>=value`` tokens, groups the
  surviving entries, and aggregates a numeric field (or an embedded
  metric) into count / mean / p50 / p95 / min / max — the streaming
  math is the existing :class:`~repro.obs.aggregators.StreamingStat`
  and :class:`~repro.obs.aggregators.FixedHistogram`, so the output is
  deterministic and bit-identical across invocations.
- :func:`follow_file` live-tails a growing telemetry file with
  incremental validation, surfacing anomalies the moment their line is
  flushed.
- :func:`explain_records` joins a watchdog anomaly back to the run
  record it followed (the run store's join,
  :func:`repro.obs.store.group_runs`) and prints the causal context:
  offending slot, enclosing span path (from the span summary's
  ``extents``), phase timings, and the execution path (backend / fast
  path / vector fallback reason).

Filter fields resolve against the manifest entry first, then its
``point`` dict (campaign grid coordinates), then the provenance
``config`` — so ``protocol=cogcast``, ``n>=1000``, and
``backend=vector`` all work without the caller knowing which level
holds the field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.aggregators import FixedHistogram, StreamingStat
from repro.obs.store import group_runs
from repro.obs.telemetry import decode_line

#: Comparison operators, longest spelling first so ``>=`` wins over ``>``.
_OPS = ("!=", ">=", "<=", "=", ">", "<")

_FILTER_RE = re.compile(
    r"^(?P<field>[A-Za-z_][A-Za-z0-9_.:-]*)(?P<op>!=|>=|<=|=|>|<)(?P<value>.*)$"
)

#: Histogram shape used for the p50/p95 columns: 64 buckets spanning
#: the group's observed maximum.  Fixed bucket count keeps quantiles
#: deterministic for a given value multiset.
_QUANTILE_BUCKETS = 64


@dataclass(frozen=True)
class Filter:
    """One parsed ``field<op>value`` token of a query."""

    field: str
    op: str
    value: Any

    def matches(self, entry: Mapping[str, Any]) -> bool:
        """Whether a manifest entry satisfies this filter.

        Entries missing the field never match (``!=`` included): a
        filter is an assertion about a field the entry must have.
        """
        actual = resolve_field(entry, self.field)
        if actual is None:
            return False
        expected = self.value
        if isinstance(expected, (int, float)) and not isinstance(expected, bool):
            if isinstance(actual, bool) or not isinstance(actual, (int, float)):
                return False
        elif type(expected) is not type(actual):
            actual = str(actual)
            expected = str(expected)
        if self.op == "=":
            return actual == expected
        if self.op == "!=":
            return actual != expected
        if self.op == ">":
            return actual > expected
        if self.op == ">=":
            return actual >= expected
        if self.op == "<":
            return actual < expected
        return actual <= expected


def coerce_value(text: str) -> Any:
    """Interpret a filter's value token: int, float, bool, or string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_filters(tokens: Sequence[str]) -> list[Filter]:
    """Parse ``field=value``-style tokens into :class:`Filter` objects.

    Raises :class:`ValueError` on a token with no recognizable
    operator, naming the token.
    """
    filters: list[Filter] = []
    for token in tokens:
        match = _FILTER_RE.match(token)
        if match is None:
            raise ValueError(
                f"bad filter {token!r}: expected field"
                f"{{{'|'.join(_OPS)}}}value"
            )
        filters.append(
            Filter(
                field=match.group("field"),
                op=match.group("op"),
                value=coerce_value(match.group("value")),
            )
        )
    return filters


def resolve_field(entry: Mapping[str, Any], field: str) -> Any:
    """Look a query field up in an entry, its point, then its config."""
    if field in entry:
        return entry[field]
    point = entry.get("point")
    if isinstance(point, Mapping) and field in point:
        return point[field]
    config = entry.get("config")
    if isinstance(config, Mapping) and field in config:
        return config[field]
    return None


def _metric_total(snapshot: Mapping[str, Any], name: str) -> float | None:
    """Sum a metric's series values across labels in one snapshot.

    Counters and gauges contribute ``value``; histograms contribute
    their ``sum``.  Returns ``None`` when the snapshot has no such
    metric.
    """
    metric = (snapshot.get("metrics") or {}).get(name)
    if not isinstance(metric, Mapping):
        return None
    total = 0.0
    for series in metric.get("series", ()):
        if "value" in series:
            total += float(series["value"])
        elif "sum" in series:
            total += float(series["sum"])
    return total


def stat_values(
    entries: Sequence[Mapping[str, Any]],
    stat: str,
    *,
    load: Callable[[str], Mapping[str, Any]] | None = None,
) -> list[float]:
    """The numeric samples of *stat* across *entries*.

    ``stat`` is a manifest/config field name, or ``metric:<name>`` to
    aggregate an embedded metrics snapshot — *load* then fetches each
    entry's stored object by ``run_id`` (a bound
    :meth:`repro.obs.store.RunStore.load`).  Non-numeric and missing
    values are skipped, so a mixed-kind store still aggregates.
    """
    values: list[float] = []
    for entry in entries:
        if stat.startswith("metric:"):
            if load is None:
                continue
            stored = load(entry["run_id"])
            snapshot = (stored.get("record") or {}).get("metrics")
            if not isinstance(snapshot, Mapping):
                continue
            total = _metric_total(snapshot, stat[len("metric:"):])
            if total is not None:
                values.append(total)
            continue
        value = resolve_field(entry, stat)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        values.append(float(value))
    return values


def aggregate_values(values: Sequence[float]) -> dict[str, float | int]:
    """count/mean/p50/p95/min/max of a sample, via the streaming kit.

    Mean and extrema come from :class:`StreamingStat` (Welford);
    quantiles from a :class:`FixedHistogram` with
    :data:`_QUANTILE_BUCKETS` buckets spanning the observed maximum —
    the quantile is the covering bucket's upper edge, a deterministic
    (if coarse) estimator.  An empty sample aggregates to zeros.
    """
    stat = StreamingStat()
    for value in values:
        stat.push(value)
    if stat.count == 0:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "min": 0.0, "max": 0.0}
    maximum = stat.maximum or 0.0
    width = (maximum / _QUANTILE_BUCKETS) if maximum > 0 else 1.0
    histogram = FixedHistogram(width=width, buckets=_QUANTILE_BUCKETS)
    for value in values:
        histogram.push(value)
    return {
        "count": stat.count,
        "mean": round(stat.mean, 6),
        "p50": round(histogram.quantile(0.50), 6),
        "p95": round(histogram.quantile(0.95), 6),
        "min": stat.minimum,
        "max": stat.maximum,
    }


def group_key(entry: Mapping[str, Any], fields: Sequence[str]) -> tuple[Any, ...]:
    """The group-by key of one entry (field values, JSON-stable)."""
    key = []
    for field in fields:
        value = resolve_field(entry, field)
        key.append("-" if value is None else value)
    return tuple(key)


def run_query(
    store: Any,
    *,
    filters: Sequence[Filter] = (),
    kind: str | None = None,
    group_by: Sequence[str] = (),
    stat: str = "slots",
) -> list[dict[str, Any]]:
    """Filter + group + aggregate a run store's manifest.

    Returns one row dict per group, sorted by group key, each carrying
    the group-by field values and the aggregate columns of *stat* (see
    :func:`stat_values` for the ``metric:<name>`` form).  *store* is a
    :class:`repro.obs.store.RunStore` (anything with ``entries()`` and
    ``load()`` works, which keeps the query plane testable without a
    filesystem).
    """
    entries = [
        entry
        for entry in store.entries()
        if (kind is None or entry.get("kind") == kind)
        and all(f.matches(entry) for f in filters)
    ]
    groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
    for entry in entries:
        groups.setdefault(group_key(entry, group_by), []).append(entry)
    rows: list[dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
        members = groups[key]
        row: dict[str, Any] = dict(zip(group_by, key))
        if not group_by:
            row["group"] = "all"
        row.update(
            aggregate_values(stat_values(members, stat, load=store.load))
        )
        rows.append(row)
    return rows


def render_rows(rows: Sequence[Mapping[str, Any]], *, stat: str) -> str:
    """Deterministic fixed-width table of :func:`run_query` rows.

    The ``count`` column is headed ``count(<stat>)`` so the table names
    what it aggregated; everything else renders with ``%g`` floats and
    two-space gutters, sorted as :func:`run_query` returned it.
    """
    if not rows:
        return "no matching runs"
    columns = list(rows[0])
    header = [
        f"count({stat})" if name == "count" else name for name in columns
    ]
    cells = [[_cell(row[column]) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), max(len(row[i]) for row in cells))
        for i in range(len(columns))
    ]
    lines = ["  ".join(name.ljust(widths[i]) for i, name in enumerate(header)).rstrip()]
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def _cell(value: Any) -> str:
    """One table cell: compact, locale-free formatting."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def follow_file(
    path: str,
    *,
    poll_s: float = 0.2,
    idle_exit_s: float | None = None,
    max_records: int | None = None,
    sleep: Callable[[float], None] | None = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Live-tail a growing telemetry file; return 1 if anomalies appeared.

    Reads complete lines from the current offset, validates each record
    incrementally (an invalid line is reported but does not stop the
    tail), prints a compact one-liner per record, and surfaces
    ``kind="anomaly"`` records immediately with an ``ANOMALY`` prefix.
    Stops after *idle_exit_s* seconds (``perf_counter``) without new
    bytes, or after *max_records* records — whichever comes first; with
    neither set it follows until interrupted.  *sleep* and *emit* are
    injectable for tests (and ``sleep`` defaults to :func:`time.sleep`,
    imported lazily to keep module import effect-free).
    """
    if sleep is None:
        from time import sleep as sleep_fn
    else:
        sleep_fn = sleep
    anomalies = 0
    invalid = 0
    seen = 0
    limit = float("inf") if max_records is None else max_records
    buffered = ""
    offset = 0
    last_progress = perf_counter()
    while seen < limit:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
        except FileNotFoundError:
            chunk = ""
        if chunk:
            last_progress = perf_counter()
            buffered += chunk
            while "\n" in buffered and seen < limit:
                line, buffered = buffered.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                seen += 1
                record, problems = decode_line(line)
                if problems:
                    what = "line" if record is None else "record"
                    emit(f"invalid {what} {seen}: " + "; ".join(problems))
                    invalid += 1
                elif record.get("kind") == "anomaly":
                    anomalies += 1
                    emit(
                        f"ANOMALY [{record.get('rule')}] "
                        f"seed={record.get('seed')} "
                        f"slot={record.get('slot')}: {record.get('message')}"
                    )
                else:
                    emit(_follow_line(record))
        elif (
            idle_exit_s is not None
            and perf_counter() - last_progress >= idle_exit_s
        ):
            break
        else:
            sleep_fn(poll_s)
    return 1 if anomalies or invalid else 0


def _follow_line(record: Mapping[str, Any]) -> str:
    """The one-line rendering of a followed (non-anomaly) record."""
    kind = record.get("kind")
    if kind == "run":
        return (
            f"[run] {record.get('protocol')} seed={record.get('seed')} "
            f"n={record.get('n')} slots={record.get('slots')} "
            f"outcome={record.get('outcome')} backend={record.get('backend', '?')}"
        )
    if kind == "experiment":
        return (
            f"[experiment] {record.get('experiment')} seed={record.get('seed')} "
            f"rows={record.get('rows')} elapsed={record.get('elapsed_s')}s"
        )
    if kind == "campaign":
        return (
            f"[campaign] {record.get('campaign')} seed={record.get('seed')} "
            f"point={json.dumps(record.get('point'), sort_keys=True)} "
            f"mean={record.get('mean')}"
        )
    return json.dumps(dict(record), sort_keys=True)


def span_path_of(spans: Mapping[str, Any] | None, slot: int) -> str:
    """The enclosing span path of *slot* in a compact span summary.

    Walks the summary's ``extents`` (run + phase intervals): the path
    is ``run`` or ``run > phaseN``.  Summaries written before extents
    existed (or runs with no span probe) yield ``(no span summary)``.
    """
    if not isinstance(spans, Mapping):
        return "(no span summary)"
    extents = spans.get("extents")
    if not isinstance(extents, Mapping):
        return "(no span extents)"
    path = []
    run = extents.get("run")
    if isinstance(run, list) and len(run) == 2:
        path.append(f"run[{run[0]},{run[1]})")
    for name in sorted(extents):
        if name == "run":
            continue
        extent = extents[name]
        if (
            isinstance(extent, list)
            and len(extent) == 2
            and extent[0] <= slot < extent[1]
        ):
            path.append(f"{name}[{extent[0]},{extent[1]})")
    return " > ".join(path) if path else "(no enclosing span)"


def explain_records(
    records: Sequence[Mapping[str, Any]],
    *,
    rule: str | None = None,
    index: int | None = None,
) -> tuple[str, int]:
    """Causal context report for the anomalies in a telemetry stream.

    Joins each ``kind="anomaly"`` record (optionally filtered by *rule*
    or selected by *index* among the matches) to its run by the rule
    documented on :func:`repro.obs.store.group_runs`, which ingest
    applies too.  Renders slot context, enclosing span path, phase
    timings, tree stats, and the execution path.  Returns ``(report
    text, exit code)``: 0 when at least one anomaly was explained, 1
    when none matched.  A negative *index* raises :class:`ValueError`.
    """
    if index is not None and index < 0:
        raise ValueError(f"anomaly index must be >= 0, got {index}")
    anomalies = [
        (run, anomaly)
        for run, group in group_runs(records)
        for anomaly in group
        if rule is None or anomaly.get("rule") == rule
    ]
    if index is not None:
        anomalies = anomalies[index : index + 1]
    if not anomalies:
        qualifier = f" with rule {rule!r}" if rule else ""
        return (f"no anomalies{qualifier} to explain", 1)
    sections = [_explain_one(run, anomaly) for run, anomaly in anomalies]
    return ("\n\n".join(sections), 0)


def _explain_one(
    run: Mapping[str, Any] | None, anomaly: Mapping[str, Any]
) -> str:
    """Render the report section for one anomaly and its run."""
    lines = [
        f"anomaly [{anomaly.get('rule')}] seed={anomaly.get('seed')} "
        f"slot={anomaly.get('slot')}: {anomaly.get('message')}"
    ]
    detail = anomaly.get("detail")
    if isinstance(detail, Mapping) and detail:
        rendered = ", ".join(
            f"{key}={json.dumps(detail[key], sort_keys=True)}"
            for key in sorted(detail)
        )
        lines.append(f"  detail: {rendered}")
    if run is None:
        lines.append("  run: (no preceding primary record)")
        return "\n".join(lines)
    context = _follow_line(run)
    if context.startswith("["):
        context = context.split("] ", 1)[-1]
    lines.append(f"  {run.get('kind')}: {context}")
    reason = run.get("vector_fallback_reason")
    engaged = run.get("fast_path")
    path_bits = []
    if run.get("backend") is not None:
        path_bits.append(f"backend={run['backend']}")
    if engaged is not None:
        path_bits.append(f"fast_path={'yes' if engaged else 'no'}")
    if reason is not None:
        path_bits.append(f"vector_fallback={reason!r}")
    if path_bits:
        lines.append("  execution path: " + ", ".join(path_bits))
    slot = anomaly.get("slot")
    spans = run.get("spans")
    if isinstance(slot, int):
        lines.append(f"  span path: {span_path_of(spans, slot)}")
    if isinstance(spans, Mapping):
        phases = spans.get("phases")
        extents = spans.get("extents") or {}
        if isinstance(phases, Mapping) and phases:
            for name in sorted(phases):
                stats = phases[name]
                extent = extents.get(name)
                where = (
                    f"[{extent[0]},{extent[1]})"
                    if isinstance(extent, list) and len(extent) == 2
                    else ""
                )
                lines.append(
                    f"  {name}{where}: events={stats.get('events')} "
                    f"successes={stats.get('successes')} "
                    f"informs={stats.get('informs')}"
                )
        tree = spans.get("tree")
        if isinstance(tree, Mapping):
            lines.append(
                f"  tree: nodes={tree.get('nodes')} edges={tree.get('edges')} "
                f"max_depth={tree.get('max_depth')} "
                f"critical_path_slots={tree.get('critical_path_slots')}"
            )
    snapshot = run.get("metrics")
    if isinstance(snapshot, Mapping):
        names = sorted((snapshot.get("metrics") or {}))
        if names:
            totals = ", ".join(
                f"{name}={_cell(_metric_total(snapshot, name) or 0.0)}"
                for name in names[:6]
            )
            lines.append(f"  metrics: {totals}")
    return "\n".join(lines)


def query_rows_json(rows: Iterable[Mapping[str, Any]]) -> str:
    """The JSON rendering of query rows (sorted keys, one document)."""
    return json.dumps(list(rows), sort_keys=True, indent=1)
