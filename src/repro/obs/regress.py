"""Cross-run diffing and benchmark-regression gating.

Two complementary comparison planes for the campaign era:

1. **Telemetry diff** (``repro obs diff A.jsonl B.jsonl``) — load two
   telemetry files, align their records into named metric series, and
   report a structured per-metric delta.  Series are classed as
   *protocol* (deterministic functions of ``(config, seed)``: slots,
   counters, span critical paths, protocol-category registry metrics)
   or *timing* (``elapsed_s``, older records' ``timings``, resources,
   timing-category metrics).  Protocol series must match — a
   difference is *significant* (bit-inequality for single runs,
   bootstrap-CI-backed for trial-level samples via
   :mod:`repro.analysis.bootstrap`); timing series are reported with
   ratios and CIs but never fail the diff, because wall time
   legitimately varies run to run.  Two runs of the same config/seed
   therefore diff clean, and a fast-path-on vs fast-path-off pair
   shows identical protocol metrics with differing timing metrics —
   the bit-identity contract of ``docs/performance.md``, now checkable
   from telemetry alone.

2. **Benchmark trajectory gating** (``repro bench check``) — one
   versioned loader for every ``BENCH_*.json`` datapoint (CI's
   ``BENCH_ci.json`` and ``make bench-save`` files share the raw
   pytest-benchmark format; the loader normalizes both), a
   machine fingerprint so cross-machine datapoints are *flagged, not
   silently compared*, and a per-benchmark baseline fit (median of
   same-machine history with a bootstrap CI) that turns the so-far
   write-only BENCH history into a regression gate: a candidate mean
   beyond the CI-backed threshold exits non-zero.  With fewer than
   ``min_history`` comparable datapoints the check is warn-only — a
   young trajectory should nag, not block.

Everything here is analysis-side and stdlib-only; nothing imports the
engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.bootstrap import BootstrapCI, bootstrap_ci, speedup_ci

#: Version of the normalized benchmark-datapoint schema.
BENCH_SCHEMA_VERSION = 1

#: Run-record fields whose values are timing-class (vary run to run).
_TIMING_FIELDS = ("elapsed_s",)

#: Record fields that describe configuration, not measurement.
_CONFIG_FIELDS = frozenset(
    {
        "schema",
        "kind",
        "protocol",
        "seed",
        "n",
        "c",
        "k",
        "universe",
        "fast",
        "fast_path",
        "experiment",
        "campaign",
        "point",
        "detail",
        "rule",
        "message",
    }
)


class RegressError(ValueError):
    """A malformed benchmark datapoint or comparison input."""


# ----------------------------------------------------------------------
# Telemetry diffing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One compared series: its class, summaries, and a verdict.

    ``verdict`` is one of ``identical``, ``significant``,
    ``within-noise``, ``timing``, ``a-only``, ``b-only``.
    """

    scope: str
    metric: str
    klass: str
    count_a: int
    count_b: int
    mean_a: float | None
    mean_b: float | None
    ratio: float | None
    ci: BootstrapCI | None
    verdict: str


@dataclass
class DiffReport:
    """The structured result of diffing two telemetry files."""

    label_a: str
    label_b: str
    deltas: list[MetricDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def significant(self) -> list[MetricDelta]:
        """Protocol-class deltas that are statistically (or bit-) real."""
        return [d for d in self.deltas if d.verdict == "significant"]

    @property
    def exit_code(self) -> int:
        """0 when no significant protocol deltas exist, else 1."""
        return 1 if self.significant else 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``--json`` output / report artifact)."""
        return {
            "a": self.label_a,
            "b": self.label_b,
            "significant": len(self.significant),
            "notes": list(self.notes),
            "deltas": [
                {
                    "scope": d.scope,
                    "metric": d.metric,
                    "class": d.klass,
                    "count_a": d.count_a,
                    "count_b": d.count_b,
                    "mean_a": d.mean_a,
                    "mean_b": d.mean_b,
                    "ratio": d.ratio,
                    "ci_low": d.ci.low if d.ci else None,
                    "ci_high": d.ci.high if d.ci else None,
                    "verdict": d.verdict,
                }
                for d in self.deltas
            ],
        }

    def render(self) -> str:
        """An aligned text report, scopes grouped, worst news first."""
        lines = [f"diff: {self.label_a} vs {self.label_b}"]
        for note in self.notes:
            lines.append(f"note: {note}")
        order = {
            "significant": 0,
            "a-only": 1,
            "b-only": 1,
            "within-noise": 2,
            "timing": 3,
            "identical": 4,
        }
        deltas = sorted(
            self.deltas, key=lambda d: (order[d.verdict], d.scope, d.metric)
        )
        for delta in deltas:
            mean_a = "-" if delta.mean_a is None else f"{delta.mean_a:.4g}"
            mean_b = "-" if delta.mean_b is None else f"{delta.mean_b:.4g}"
            ratio = "" if delta.ratio is None else f" ratio={delta.ratio:.3f}"
            ci = (
                f" ci=[{delta.ci.low:.3f}, {delta.ci.high:.3f}]"
                if delta.ci is not None
                else ""
            )
            lines.append(
                f"[{delta.verdict:>12}] {delta.scope} {delta.metric} "
                f"({delta.klass}): {mean_a} -> {mean_b}{ratio}{ci} "
                f"(n={delta.count_a}/{delta.count_b})"
            )
        verdict = (
            "IDENTICAL protocol metrics"
            if not self.significant
            else f"{len(self.significant)} SIGNIFICANT protocol deltas"
        )
        timing_diffs = [
            d
            for d in self.deltas
            if d.klass == "timing" and d.mean_a is not None and d.mean_a != d.mean_b
        ]
        lines.append(
            f"summary: {verdict}; {len(timing_diffs)} timing metrics differ "
            "(reporting only)"
        )
        return "\n".join(lines)


def _numeric_leaves(prefix: str, value: Any) -> list[tuple[str, float]]:
    """Flatten nested dicts to dotted (key, number) pairs, sorted."""
    if isinstance(value, bool):
        return [(prefix, float(value))]
    if isinstance(value, (int, float)):
        return [(prefix, float(value))]
    leaves: list[tuple[str, float]] = []
    if isinstance(value, Mapping):
        for key in sorted(value):
            leaves.extend(_numeric_leaves(f"{prefix}.{key}", value[key]))
    return leaves


def _snapshot_series(snapshot: Mapping[str, Any]) -> list[tuple[str, str, float]]:
    """(metric path, class, value) triples from a metrics snapshot."""
    out: list[tuple[str, str, float]] = []
    for name in sorted(snapshot.get("metrics", {})):
        entry = snapshot["metrics"][name]
        klass = "timing" if entry.get("category") == "timing" else "protocol"
        for series in entry.get("series", []):
            labels = ",".join(str(v) for v in series.get("labels", []))
            path = f"metrics.{name}{{{labels}}}" if labels else f"metrics.{name}"
            if entry["type"] in ("counter", "gauge"):
                out.append((path, klass, float(series["value"] or 0.0)))
            else:
                stat = series.get("stat", {})
                out.append((f"{path}.count", klass, float(stat.get("count", 0))))
                out.append((f"{path}.sum", klass, float(series.get("sum", 0.0))))
    return out


def collect_series(
    records: Sequence[Mapping[str, Any]],
) -> dict[tuple[str, str], tuple[str, list[float]]]:
    """Fold telemetry records into ``(scope, metric) -> (class, samples)``.

    Scopes group comparable records: ``run/<protocol>``,
    ``experiment/<id>``, ``campaign/<name>/<point>``, ``anomaly``.
    Within a scope each numeric field becomes one named series, sample
    order following record order (emission order, which is
    deterministic for seeded runs).
    """
    series: dict[tuple[str, str], tuple[str, list[float]]] = {}

    def push(scope: str, metric: str, klass: str, value: float) -> None:
        key = (scope, metric)
        if key not in series:
            series[key] = (klass, [])
        series[key][1].append(float(value))

    for record in records:
        kind = record.get("kind")
        if kind == "run":
            scope = f"run/{record.get('protocol', '?')}"
            push(scope, "slots", "protocol", record.get("slots", 0))
            push(
                scope,
                "completed",
                "protocol",
                1.0 if record.get("outcome") == "completed" else 0.0,
            )
            for name, value in sorted((record.get("counters") or {}).items()):
                push(scope, f"counters.{name}", "protocol", value)
            for name, stat in sorted((record.get("timings") or {}).items()):
                push(scope, f"timings.{name}.seconds", "timing", stat["seconds"])
            for path, value in _numeric_leaves("spans", record.get("spans") or {}):
                push(scope, path, "protocol", value)
            for name, value in sorted((record.get("resources") or {}).items()):
                push(scope, f"resources.{name}", "timing", value)
            for field_name in _TIMING_FIELDS:
                if field_name in record:
                    push(scope, field_name, "timing", record[field_name])
            for path, klass, value in _snapshot_series(record.get("metrics") or {}):
                push(scope, path, klass, value)
        elif kind == "experiment":
            scope = f"experiment/{record.get('experiment', '?')}"
            push(scope, "rows", "protocol", record.get("rows", 0))
            push(scope, "elapsed_s", "timing", record.get("elapsed_s", 0.0))
            for name, stat in sorted((record.get("timings") or {}).items()):
                push(scope, f"timings.{name}.seconds", "timing", stat["seconds"])
            for name, value in sorted((record.get("resources") or {}).items()):
                push(scope, f"resources.{name}", "timing", value)
            for path, klass, value in _snapshot_series(record.get("metrics") or {}):
                push(scope, path, klass, value)
        elif kind == "campaign":
            point = record.get("point") or {}
            point_text = ",".join(f"{k}={point[k]}" for k in sorted(point))
            scope = f"campaign/{record.get('campaign', '?')}/{point_text}"
            push(scope, "mean", "protocol", record.get("mean", 0.0))
            push(scope, "trials", "protocol", record.get("trials", 0))
            push(scope, "elapsed_s", "timing", record.get("elapsed_s", 0.0))
            for path, klass, value in _snapshot_series(record.get("metrics") or {}):
                push(scope, path, klass, value)
        elif kind == "anomaly":
            push("anomaly", f"rule.{record.get('rule', '?')}", "protocol", 1.0)
    return series


def diff_records(
    records_a: Sequence[Mapping[str, Any]],
    records_b: Sequence[Mapping[str, Any]],
    *,
    label_a: str = "A",
    label_b: str = "B",
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> DiffReport:
    """Diff two batches of telemetry records into a :class:`DiffReport`.

    Protocol-class series: equal sample lists are ``identical``; with
    at least three samples per side an unequal pair gets a bootstrap
    CI on the mean ratio (``significant`` iff the CI excludes 1.0,
    else ``within-noise``); smaller unequal samples are deterministic
    measurements that disagree, hence ``significant`` outright.
    Timing-class series always get verdict ``timing`` (with a ratio
    and, when sample sizes allow, a CI) and never fail the diff.
    """
    report = DiffReport(label_a=label_a, label_b=label_b)
    series_a = collect_series(records_a)
    series_b = collect_series(records_b)
    for key in sorted(set(series_a) | set(series_b)):
        scope, metric = key
        klass_a, samples_a = series_a.get(key, (None, []))
        klass_b, samples_b = series_b.get(key, (None, []))
        klass = klass_a or klass_b or "protocol"
        mean_a = sum(samples_a) / len(samples_a) if samples_a else None
        mean_b = sum(samples_b) / len(samples_b) if samples_b else None
        ratio = None
        if mean_a is not None and mean_b is not None and mean_a != 0:
            ratio = mean_b / mean_a
        ci: BootstrapCI | None = None
        if not samples_a or not samples_b:
            verdict = "b-only" if not samples_a else "a-only"
        elif klass == "timing":
            verdict = "timing"
            ci = _maybe_ci(samples_a, samples_b, confidence, resamples, seed)
        elif samples_a == samples_b:
            verdict = "identical"
        elif len(samples_a) >= 3 and len(samples_b) >= 3:
            ci = _maybe_ci(samples_a, samples_b, confidence, resamples, seed)
            verdict = (
                "significant"
                if ci is not None and not ci.contains(1.0)
                else "within-noise"
            )
        else:
            verdict = "significant"
        report.deltas.append(
            MetricDelta(
                scope=scope,
                metric=metric,
                klass=klass,
                count_a=len(samples_a),
                count_b=len(samples_b),
                mean_a=mean_a,
                mean_b=mean_b,
                ratio=ratio,
                ci=ci,
                verdict=verdict,
            )
        )
    _note_config_mismatches(report, records_a, records_b)
    return report


def _maybe_ci(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    confidence: float,
    resamples: int,
    seed: int,
) -> BootstrapCI | None:
    """A ratio CI when both sides have enough non-degenerate samples."""
    if len(samples_a) < 3 or len(samples_b) < 3:
        return None
    if sum(samples_a) == 0:
        return None
    return speedup_ci(
        list(samples_b),
        list(samples_a),
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )


def _note_config_mismatches(
    report: DiffReport,
    records_a: Sequence[Mapping[str, Any]],
    records_b: Sequence[Mapping[str, Any]],
) -> None:
    """Record configuration differences (seeds, shapes) as notes."""

    def config_values(records: Sequence[Mapping[str, Any]], name: str) -> set[Any]:
        values = set()
        for record in records:
            if name in record:
                value = record[name]
                values.add(
                    json.dumps(value, sort_keys=True)
                    if isinstance(value, dict)
                    else value
                )
        return values

    for name in sorted(_CONFIG_FIELDS - {"schema", "kind", "detail", "message"}):
        values_a = config_values(records_a, name)
        values_b = config_values(records_b, name)
        if values_a and values_b and values_a != values_b:
            report.notes.append(
                f"config field {name!r} differs: "
                f"{sorted(values_a)} vs {sorted(values_b)}"
            )


def diff_files(
    path_a: str | Path,
    path_b: str | Path,
    *,
    confidence: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> DiffReport:
    """Diff two telemetry JSONL files (lenient read, like the CLI)."""
    from repro.obs.telemetry import read_telemetry

    return diff_records(
        read_telemetry(path_a, strict=False),
        read_telemetry(path_b, strict=False),
        label_a=str(path_a),
        label_b=str(path_b),
        confidence=confidence,
        resamples=resamples,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Benchmark datapoints: one loader, one schema, a fingerprint
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchStats:
    """The per-benchmark numbers the regression gate consumes."""

    mean: float
    stddev: float
    median: float
    rounds: int
    minimum: float

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready form (normalized schema ``benchmarks`` values)."""
        return {
            "mean": self.mean,
            "stddev": self.stddev,
            "median": self.median,
            "rounds": self.rounds,
            "min": self.minimum,
        }


@dataclass(frozen=True)
class BenchDatapoint:
    """One normalized benchmark datapoint (one BENCH_*.json file)."""

    source: str
    label: str
    schema_version: int
    fingerprint: Mapping[str, str]
    stats: Mapping[str, BenchStats]

    def fingerprint_key(self) -> str:
        """A stable one-line machine identity for comparability checks."""
        return "|".join(
            f"{key}={self.fingerprint[key]}" for key in sorted(self.fingerprint)
        )

    def as_dict(self) -> dict[str, Any]:
        """The normalized, versioned on-disk schema."""
        return {
            "bench_schema": self.schema_version,
            "label": self.label,
            "fingerprint": dict(self.fingerprint),
            "benchmarks": {
                name: self.stats[name].as_dict() for name in sorted(self.stats)
            },
        }


def machine_fingerprint(machine_info: Mapping[str, Any]) -> dict[str, str]:
    """Normalize pytest-benchmark ``machine_info`` to a comparable identity.

    Keeps only the fields that determine whether two datapoints'
    absolute times are comparable — architecture, CPU model and count,
    Python implementation/version — and normalizes missing values to
    ``"unknown"`` so hand-built datapoints still fingerprint.
    """
    cpu = machine_info.get("cpu") or {}

    def pick(*path: str) -> str:
        value: Any = machine_info
        for part in path:
            if not isinstance(value, Mapping):
                return "unknown"
            value = value.get(part)
        return str(value) if value not in (None, "") else "unknown"

    return {
        "machine": pick("machine"),
        "system": pick("system"),
        "python": pick("python_version"),
        "python_impl": pick("python_implementation"),
        "cpu": str(cpu.get("brand_raw") or "unknown"),
        "cpu_count": str(cpu.get("count") or "unknown"),
    }


def load_bench_datapoint(path: str | Path) -> BenchDatapoint:
    """Load one datapoint, raw pytest-benchmark or normalized schema.

    ``BENCH_ci.json`` (the CI benchmarks job) and ``BENCH_YYYYMMDD.json``
    (``make bench-save``) are both raw pytest-benchmark dumps; files in
    the normalized :data:`BENCH_SCHEMA_VERSION` form load too, so a
    trajectory can mix the two.  Anything else raises
    :class:`RegressError` naming the file.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise RegressError(f"{path}: unreadable benchmark datapoint ({error})")
    if not isinstance(data, dict):
        raise RegressError(f"{path}: benchmark datapoint must be a JSON object")
    if "bench_schema" in data:
        if data["bench_schema"] != BENCH_SCHEMA_VERSION:
            raise RegressError(
                f"{path}: bench_schema {data['bench_schema']!r}, "
                f"expected {BENCH_SCHEMA_VERSION}"
            )
        stats = {
            name: BenchStats(
                mean=float(entry["mean"]),
                stddev=float(entry.get("stddev", 0.0)),
                median=float(entry.get("median", entry["mean"])),
                rounds=int(entry.get("rounds", 1)),
                minimum=float(entry.get("min", entry["mean"])),
            )
            for name, entry in sorted(data.get("benchmarks", {}).items())
        }
        return BenchDatapoint(
            source=str(path),
            label=str(data.get("label", path.stem)),
            schema_version=BENCH_SCHEMA_VERSION,
            fingerprint=dict(data.get("fingerprint", {})),
            stats=stats,
        )
    if "benchmarks" in data and "machine_info" in data:
        stats = {}
        for bench in data["benchmarks"]:
            name = bench.get("fullname") or bench.get("name")
            numbers = bench.get("stats") or {}
            if name is None or "mean" not in numbers:
                continue
            stats[str(name)] = BenchStats(
                mean=float(numbers["mean"]),
                stddev=float(numbers.get("stddev", 0.0)),
                median=float(numbers.get("median", numbers["mean"])),
                rounds=int(numbers.get("rounds", 1)),
                minimum=float(numbers.get("min", numbers["mean"])),
            )
        return BenchDatapoint(
            source=str(path),
            label=str(data.get("datetime") or path.stem),
            schema_version=BENCH_SCHEMA_VERSION,
            fingerprint=machine_fingerprint(data["machine_info"]),
            stats=stats,
        )
    raise RegressError(
        f"{path}: neither a pytest-benchmark dump nor a "
        f"bench_schema={BENCH_SCHEMA_VERSION} datapoint"
    )


def load_bench_history(paths: Iterable[str | Path]) -> list[BenchDatapoint]:
    """Load and label-sort a benchmark trajectory (oldest first)."""
    datapoints = [load_bench_datapoint(path) for path in paths]
    return sorted(datapoints, key=lambda d: (d.label, d.source))


# ----------------------------------------------------------------------
# Regression checking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchVerdict:
    """One benchmark's comparison against its fitted baseline."""

    name: str
    candidate_mean: float
    baseline_mean: float | None
    limit: float | None
    ratio: float | None
    history: int
    verdict: str  # "ok" | "regression" | "improvement" | "new"


@dataclass
class BenchReport:
    """The result of ``repro bench check``."""

    candidate: str
    history: int
    comparable: int
    warn_only: bool
    threshold: float
    verdicts: list[BenchVerdict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchVerdict]:
        """Benchmarks whose candidate mean exceeds the CI-backed limit."""
        return [v for v in self.verdicts if v.verdict == "regression"]

    @property
    def exit_code(self) -> int:
        """1 on confirmed regression (history permitting), else 0."""
        return 1 if self.regressions and not self.warn_only else 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report (the CI diff-report artifact)."""
        return {
            "candidate": self.candidate,
            "history": self.history,
            "comparable": self.comparable,
            "warn_only": self.warn_only,
            "threshold": self.threshold,
            "regressions": len(self.regressions),
            "warnings": list(self.warnings),
            "benchmarks": [
                {
                    "name": v.name,
                    "candidate_mean": v.candidate_mean,
                    "baseline_mean": v.baseline_mean,
                    "limit": v.limit,
                    "ratio": v.ratio,
                    "history": v.history,
                    "verdict": v.verdict,
                }
                for v in self.verdicts
            ],
        }

    def render(self) -> str:
        """An aligned text report, regressions first."""
        lines = [
            f"bench check: {self.candidate} vs {self.comparable} comparable "
            f"of {self.history} history datapoints "
            f"(threshold {self.threshold:.0%}"
            + (", warn-only)" if self.warn_only else ")")
        ]
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        order = {"regression": 0, "improvement": 1, "new": 2, "ok": 3}
        for v in sorted(self.verdicts, key=lambda v: (order[v.verdict], v.name)):
            if v.baseline_mean is None:
                lines.append(f"[{v.verdict:>10}] {v.name}: {v.candidate_mean:.6g}s")
                continue
            lines.append(
                f"[{v.verdict:>10}] {v.name}: {v.candidate_mean:.6g}s "
                f"vs baseline {v.baseline_mean:.6g}s "
                f"(x{v.ratio:.2f}, limit {v.limit:.6g}s, n={v.history})"
            )
        lines.append(
            f"summary: {len(self.regressions)} regressions, "
            f"{sum(1 for v in self.verdicts if v.verdict == 'improvement')} "
            f"improvements, {sum(1 for v in self.verdicts if v.verdict == 'new')} new"
        )
        return "\n".join(lines)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_regressions(
    history: Sequence[BenchDatapoint],
    candidate: BenchDatapoint,
    *,
    threshold: float = 0.25,
    confidence: float = 0.95,
    resamples: int = 1000,
    min_history: int = 3,
    seed: int = 0,
) -> BenchReport:
    """Fit per-benchmark baselines from *history* and judge *candidate*.

    Only datapoints whose machine fingerprint matches the candidate's
    participate in the baseline; mismatching datapoints are flagged in
    ``warnings`` instead of silently skewing the fit.  The baseline is
    the median of historical means; with ``min_history`` or more
    comparable datapoints a percentile-bootstrap CI of that median
    widens the limit, so noisy trajectories do not false-positive.  A
    candidate mean above ``max(ci_high, baseline) * (1 + threshold)``
    is a regression; below ``baseline / (1 + threshold)`` is an
    improvement.  ``warn_only`` (history too thin) downgrades the exit
    code but keeps the verdicts visible.
    """
    if threshold <= 0:
        raise RegressError("threshold must be positive")
    candidate_key = candidate.fingerprint_key()
    comparable: list[BenchDatapoint] = []
    report = BenchReport(
        candidate=candidate.source,
        history=0,
        comparable=0,
        warn_only=False,
        threshold=threshold,
    )
    for datapoint in history:
        if datapoint.source == candidate.source:
            continue
        report.history += 1
        if datapoint.fingerprint_key() != candidate_key:
            report.warnings.append(
                f"{datapoint.source}: machine fingerprint differs from "
                "candidate; excluded from the baseline "
                f"({datapoint.fingerprint_key()} vs {candidate_key})"
            )
            continue
        comparable.append(datapoint)
    report.comparable = len(comparable)
    if report.comparable < min_history:
        report.warn_only = True
        report.warnings.append(
            f"only {report.comparable} comparable datapoints "
            f"(need {min_history} to gate); reporting regressions as warnings"
        )
    for name in sorted(candidate.stats):
        candidate_mean = candidate.stats[name].mean
        historical = [
            point.stats[name].mean for point in comparable if name in point.stats
        ]
        if not historical:
            report.verdicts.append(
                BenchVerdict(
                    name=name,
                    candidate_mean=candidate_mean,
                    baseline_mean=None,
                    limit=None,
                    ratio=None,
                    history=0,
                    verdict="new",
                )
            )
            continue
        baseline = _median(historical)
        ci_high = baseline
        if len(historical) >= 3:
            ci = bootstrap_ci(
                historical,
                _median,
                confidence=confidence,
                resamples=resamples,
                seed=seed,
            )
            ci_high = max(ci.high, baseline)
        limit = ci_high * (1.0 + threshold)
        ratio = candidate_mean / baseline if baseline > 0 else None
        if candidate_mean > limit:
            verdict = "regression"
        elif baseline > 0 and candidate_mean < baseline / (1.0 + threshold):
            verdict = "improvement"
        else:
            verdict = "ok"
        report.verdicts.append(
            BenchVerdict(
                name=name,
                candidate_mean=candidate_mean,
                baseline_mean=baseline,
                limit=limit,
                ratio=ratio,
                history=len(historical),
                verdict=verdict,
            )
        )
    return report


def bench_check(
    candidate_path: str | None,
    history_patterns: Sequence[str],
    *,
    threshold: float = 0.25,
    min_history: int = 3,
    resamples: int = 1000,
    seed: int = 0,
    report_path: str | None = None,
    as_json: bool = False,
) -> int:
    """The ``repro bench check`` implementation; returns the exit code.

    History files come from globbing *history_patterns* (literal paths
    pass through).  Without an explicit candidate, the newest history
    datapoint (by label) is judged against the rest.  ``--report``
    writes the JSON form regardless of verdict, so CI can upload the
    artifact before gating on the exit code.
    """
    import sys

    from repro.obs.telemetry import expand_paths

    paths = expand_paths(history_patterns)
    if candidate_path is not None and candidate_path not in paths:
        paths.append(candidate_path)
    try:
        history = load_bench_history(dict.fromkeys(paths))
    except RegressError as error:
        print(str(error), file=sys.stderr)
        return 1
    if not history:
        print("no benchmark datapoints found", file=sys.stderr)
        return 1
    if candidate_path is not None:
        resolved = str(Path(candidate_path))
        chosen = [point for point in history if point.source == resolved]
        if not chosen:
            print(f"candidate {candidate_path} failed to load", file=sys.stderr)
            return 1
        candidate = chosen[0]
    else:
        candidate = history[-1]
    report = check_regressions(
        [point for point in history if point.source != candidate.source],
        candidate,
        threshold=threshold,
        min_history=min_history,
        resamples=resamples,
        seed=seed,
    )
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    print(json.dumps(report.as_dict(), sort_keys=True, indent=2) if as_json else report.render())
    return report.exit_code
