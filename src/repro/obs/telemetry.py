"""Run telemetry: JSONL manifests of what was run and what happened.

Every instrumented run emits one machine-readable record — the seed,
the network shape ``(n, c, k, C)``, the protocol, the slot count, the
outcome, and optionally a metrics snapshot and a span summary.
Records accumulate as JSON lines in a telemetry file that the
``python -m repro obs`` CLI can validate, tail, and summarize, and
that CI uploads as a build artifact.

The schema is deliberately small and hand-validated (no external
dependency): :func:`validate_record` returns a list of problems, and
:class:`TelemetrySink` refuses to write an invalid record so a
telemetry file is well-formed by construction.

R2 note: records carry **no wall-clock timestamps** — runs replay from
``(seed, scenario)``, and the only time-like fields are
``perf_counter`` durations, which are reporting, not state.  Order in
the file is emission order.

Every record built here is stamped with a ``provenance`` block
(:mod:`repro.obs.provenance`): the canonical config hash, the
import-time code version, and the config dict itself — the
``(config_hash, seed, code_version)`` triple the content-addressed run
store (:mod:`repro.obs.store`) indexes by.  Run records additionally
carry ``backend`` (the resolved engine backend name) and, when the
columnar kernel declined to engage, ``vector_fallback_reason`` — so
queries can filter by execution path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable, Mapping, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.channels import Network

#: Version stamped into (and required of) every record.
TELEMETRY_SCHEMA_VERSION = 1

#: Allowed values of a run record's ``outcome`` field.
RUN_OUTCOMES = ("completed", "budget", "failed")

#: kind -> required fields -> allowed types (None marks nullable).
_REQUIRED: dict[str, dict[str, tuple[type, ...]]] = {
    "run": {
        "protocol": (str,),
        "n": (int,),
        "c": (int,),
        "k": (int,),
        "universe": (int,),
        "slots": (int,),
        "outcome": (str,),
    },
    "experiment": {
        "experiment": (str,),
        "trials": (int, type(None)),
        "fast": (bool,),
        "elapsed_s": (int, float),
        "rows": (int,),
    },
    "campaign": {
        "campaign": (str,),
        "point": (dict,),
        "trials": (int,),
        "mean": (int, float),
        "elapsed_s": (int, float),
    },
    "anomaly": {
        "rule": (str,),
        "slot": (int,),
        "message": (str,),
    },
}


class TelemetryError(ValueError):
    """An invalid telemetry record was emitted or read."""


def validate_record(record: Any) -> list[str]:
    """Check one record against the schema; return the problems found.

    An empty list means the record is valid.  Checks the common header
    (``schema``, ``kind``, ``seed``), the per-kind required fields and
    their types, a run record's ``outcome`` vocabulary, and the shape
    of the optional ``counters`` / ``timings`` / ``provenance``
    attachments.  ``counters`` and ``timings`` are no longer written (a
    run's counts ride in its ``metrics`` snapshot, and the engine no
    longer times its own sections) but are still checked in records
    written before those changes.  The ``provenance`` block is
    optional (records written before stamping existed omit it) but
    validated when present.
    """
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    schema = record.get("schema")
    if schema != TELEMETRY_SCHEMA_VERSION:
        problems.append(
            f"schema is {schema!r}, expected {TELEMETRY_SCHEMA_VERSION}"
        )
    kind = record.get("kind")
    if kind not in _REQUIRED:
        problems.append(f"kind is {kind!r}, expected one of {sorted(_REQUIRED)}")
        return problems
    if not isinstance(record.get("seed"), int) or isinstance(record.get("seed"), bool):
        problems.append(f"seed is {record.get('seed')!r}, expected int")
    for name, types in _REQUIRED[kind].items():
        if name not in record:
            problems.append(f"missing required field {name!r}")
            continue
        value = record[name]
        if (isinstance(value, bool) and bool not in types) or not isinstance(
            value, types
        ):
            problems.append(f"{name} is {value!r}, expected {_type_names(types)}")
    outcome = record.get("outcome")
    if kind == "run" and isinstance(outcome, str) and outcome not in RUN_OUTCOMES:
        problems.append(f"outcome is {outcome!r}, expected one of {RUN_OUTCOMES}")
    counters = record.get("counters")
    if counters is not None:
        if not isinstance(counters, dict) or not all(
            isinstance(key, str) and isinstance(value, int)
            for key, value in counters.items()
        ):
            problems.append("counters must map names to integers")
    timings = record.get("timings")
    if timings is not None:
        if not isinstance(timings, dict) or not all(
            isinstance(key, str)
            and isinstance(value, dict)
            and isinstance(value.get("seconds"), (int, float))
            and isinstance(value.get("calls"), int)
            for key, value in timings.items()
        ):
            problems.append(
                "timings must map sections to {seconds: number, calls: int}"
            )
    spans = record.get("spans")
    if spans is not None and not isinstance(spans, dict):
        problems.append("spans must be an object (a span summary)")
    detail = record.get("detail")
    if detail is not None and not isinstance(detail, dict):
        problems.append("detail must be an object")
    metrics = record.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            problems.append("metrics must be an object (a registry snapshot)")
        else:
            from repro.obs.metrics import validate_snapshot

            problems.extend(
                f"metrics: {problem}" for problem in validate_snapshot(metrics)
            )
    resources = record.get("resources")
    if resources is not None:
        if not isinstance(resources, dict) or not all(
            isinstance(key, str)
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            for key, value in resources.items()
        ):
            problems.append("resources must map names to numbers")
    if kind == "run":
        elapsed = record.get("elapsed_s")
        if elapsed is not None and (
            isinstance(elapsed, bool) or not isinstance(elapsed, (int, float))
        ):
            problems.append(f"elapsed_s is {elapsed!r}, expected number")
        fast_path = record.get("fast_path")
        if fast_path is not None and not isinstance(fast_path, bool):
            problems.append(f"fast_path is {fast_path!r}, expected bool")
        backend = record.get("backend")
        if backend is not None and not isinstance(backend, str):
            problems.append(f"backend is {backend!r}, expected string")
        reason = record.get("vector_fallback_reason")
        if reason is not None and not isinstance(reason, str):
            problems.append(
                f"vector_fallback_reason is {reason!r}, expected string"
            )
    provenance = record.get("provenance")
    if provenance is not None:
        from repro.obs.provenance import validate_provenance

        problems.extend(validate_provenance(provenance))
    return problems


def _type_names(types: tuple[type, ...]) -> str:
    return " | ".join("null" if t is type(None) else t.__name__ for t in types)


def _attach(
    record: dict[str, Any],
    *,
    spans: Any = None,
    metrics: Any = None,
    resources: Mapping[str, float] | None = None,
) -> None:
    """Embed the instrument snapshots every record kind may carry."""
    if spans is not None:
        record["spans"] = (
            spans.summary() if hasattr(spans, "summary") else dict(spans)
        )
    if metrics is not None:
        record["metrics"] = (
            metrics.snapshot() if hasattr(metrics, "snapshot") else dict(metrics)
        )
    if resources is not None:
        record["resources"] = dict(resources)


def run_record(
    *,
    protocol: str,
    seed: int,
    network: "Network",
    slots: int,
    outcome: str,
    spans: Any = None,
    metrics: Any = None,
    resources: Mapping[str, float] | None = None,
    elapsed_s: float | None = None,
    fast_path: bool | None = None,
    backend: str | None = None,
    vector_fallback_reason: str | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a ``kind="run"`` manifest for one engine run.

    The network supplies ``(n, c, k)`` and the slot-0 universe size
    ``C``.  When *spans* exposes ``summary()`` (a
    :class:`repro.obs.spans.SpanProbe`) or is already a mapping, it
    rides along as ``spans``.  *metrics* is a
    :class:`repro.obs.metrics.MetricsRegistry` (or its snapshot dict),
    embedded as the validated ``metrics`` field; *resources* is a
    :meth:`repro.obs.metrics.ResourceSampler.delta` mapping; timing
    context rides along as ``elapsed_s`` (harness-measured
    ``perf_counter`` duration of the engine run) and ``fast_path``
    (whether the fast-path kernel was eligible).  *backend* names the
    resolved engine backend (defaults to the process-wide default) and
    *vector_fallback_reason* records why the columnar kernel declined
    to engage, when it did.  *extra* keys are merged last (they must
    not shadow schema fields).  The record's ``provenance`` block
    hashes ``(protocol, network shape, schedule type, backend)``.
    """
    if backend is None:
        from repro.sim.backends.base import default_backend_name

        backend = default_backend_name()
    record: dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "kind": "run",
        "protocol": protocol,
        "seed": seed,
        "n": network.num_nodes,
        "c": network.channels_per_node,
        "k": network.overlap,
        "universe": len(network.assignment_at(0).universe),
        "slots": slots,
        "outcome": outcome,
    }
    _attach(record, spans=spans, metrics=metrics, resources=resources)
    if elapsed_s is not None:
        record["elapsed_s"] = round(float(elapsed_s), 6)
    if fast_path is not None:
        record["fast_path"] = bool(fast_path)
    record["backend"] = backend
    if vector_fallback_reason is not None:
        record["vector_fallback_reason"] = vector_fallback_reason
    from repro.obs.provenance import provenance_block

    record["provenance"] = provenance_block(
        {
            "kind": "run",
            "protocol": protocol,
            "n": record["n"],
            "c": record["c"],
            "k": record["k"],
            "universe": record["universe"],
            "schedule": type(network.schedule).__name__,
            "backend": backend,
        }
    )
    if extra:
        for key, value in extra.items():
            if key in record:
                raise TelemetryError(f"extra field {key!r} shadows a schema field")
            record[key] = value
    return record


def experiment_record(
    *,
    experiment_id: str,
    seed: int,
    trials: int | None,
    fast: bool,
    elapsed_s: float,
    rows: int,
    spans: Any = None,
    metrics: Any = None,
    resources: Mapping[str, float] | None = None,
) -> dict[str, Any]:
    """Build a ``kind="experiment"`` manifest for one table generation.

    When *spans* exposes ``summary()`` (or is already a mapping) it
    rides along as ``spans``; *metrics* (a registry or its snapshot)
    and *resources* (a sampler delta) embed like they do on run
    records.  The ``provenance`` block hashes ``(experiment id,
    trials, fast, backend)``.
    """
    from repro.obs.provenance import provenance_block
    from repro.sim.backends.base import default_backend_name

    record: dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "kind": "experiment",
        "experiment": experiment_id,
        "seed": seed,
        "trials": trials,
        "fast": fast,
        "elapsed_s": round(elapsed_s, 6),
        "rows": rows,
        "provenance": provenance_block(
            {
                "kind": "experiment",
                "experiment": experiment_id,
                "trials": trials,
                "fast": fast,
                "backend": default_backend_name(),
            }
        ),
    }
    _attach(record, spans=spans, metrics=metrics, resources=resources)
    return record


def anomaly_record(
    *,
    rule: str,
    seed: int,
    slot: int,
    message: str,
    protocol: str | None = None,
    detail: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a ``kind="anomaly"`` record for one watchdog violation.

    Emitted by :func:`repro.obs.watchdog.flush_anomalies`; *detail*
    carries the watchdog's structured context, *protocol* names the run
    the anomaly was observed in (when known).  The ``provenance`` block
    hashes ``(rule, protocol)`` — anomalies are stamped for schema
    uniformity, but the run store attaches them to the primary record
    they follow rather than addressing them on their own.
    """
    from repro.obs.provenance import provenance_block

    record: dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "kind": "anomaly",
        "seed": seed,
        "rule": rule,
        "slot": slot,
        "message": message,
        "provenance": provenance_block(
            {"kind": "anomaly", "rule": rule, "protocol": protocol}
        ),
    }
    if protocol is not None:
        record["protocol"] = protocol
    if detail is not None:
        record["detail"] = dict(detail)
    return record


def campaign_record(
    *,
    name: str,
    seed: int,
    point: Mapping[str, Any],
    trials: int,
    mean: float,
    elapsed_s: float,
    metrics: Any = None,
    backend: str | None = None,
) -> dict[str, Any]:
    """Build a ``kind="campaign"`` manifest for one grid point.

    *metrics* (a registry or its snapshot) embeds the grid point's
    consolidated instrument state like it does on run records.
    *backend* names the engine backend the point's trials ran under
    (defaults to the process-wide default).  The ``provenance`` block
    hashes ``(campaign name, grid point, trials, backend)`` — distinct
    grid points of one campaign therefore get distinct config hashes
    even though they share the root seed.
    """
    from repro.obs.provenance import provenance_block
    from repro.sim.backends.base import default_backend_name

    if backend is None:
        backend = default_backend_name()
    record: dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "kind": "campaign",
        "campaign": name,
        "seed": seed,
        "point": dict(point),
        "trials": trials,
        "mean": float(mean),
        "elapsed_s": round(elapsed_s, 6),
        "provenance": provenance_block(
            {
                "kind": "campaign",
                "campaign": name,
                "point": dict(point),
                "trials": trials,
                "backend": backend,
            }
        ),
    }
    _attach(record, metrics=metrics)
    return record


class TelemetrySink:
    """Appends validated records to a JSONL telemetry file.

    Accepts a path (opened lazily, append mode, so successive runs
    accumulate into one file) or any writable text handle.  Invalid
    records raise :class:`TelemetryError` *before* anything is written.
    Usable as a context manager; :attr:`count` tracks records emitted
    through this sink instance.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        self._path: Path | None
        self._handle: IO[str] | None
        if isinstance(target, (str, Path)):
            self._path = Path(target)
            self._handle = None
        else:
            self._path = None
            self._handle = target
        self._owns_handle = self._handle is None
        self.count = 0

    def emit(self, record: Mapping[str, Any]) -> None:
        """Validate and append one record (flushed immediately)."""
        record = dict(record)
        problems = validate_record(record)
        if problems:
            raise TelemetryError(
                "invalid telemetry record: " + "; ".join(problems)
            )
        if self._handle is None:
            assert self._path is not None
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.count += 1

    def close(self) -> None:
        """Close the underlying file if this sink opened it."""
        if self._owns_handle and self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetrySink":
        """Context-manager entry: returns the sink itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: closes an owned file handle."""
        self.close()


def read_telemetry(path: str | Path, *, strict: bool = True) -> list[dict[str, Any]]:
    """Load every record from a telemetry JSONL file.

    With ``strict=True`` (default) a malformed line or invalid record
    raises :class:`TelemetryError` naming the line; with
    ``strict=False`` bad lines are skipped.
    """
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                if strict:
                    raise TelemetryError(
                        f"{path}:{number}: not valid JSON ({error.msg})"
                    ) from None
                continue
            problems = validate_record(record)
            if problems:
                if strict:
                    raise TelemetryError(
                        f"{path}:{number}: " + "; ".join(problems)
                    )
                continue
            records.append(record)
    return records


def summarize_records(records: Sequence[Mapping[str, Any]]) -> str:
    """A human-readable digest of a batch of telemetry records.

    Groups run records by protocol (count, slot stats, outcome mix),
    experiment records by experiment id, campaign records by campaign
    name, and anomaly records by rule.
    """
    if not records:
        return "no telemetry records"
    lines: list[str] = [f"{len(records)} records"]
    runs = [r for r in records if r.get("kind") == "run"]
    if runs:
        lines.append(f"runs: {len(runs)}")
        for protocol in sorted({r["protocol"] for r in runs}):
            group = [r for r in runs if r["protocol"] == protocol]
            slots = [r["slots"] for r in group]
            outcomes = {
                outcome: sum(1 for r in group if r["outcome"] == outcome)
                for outcome in sorted({r["outcome"] for r in group})
            }
            outcome_text = ", ".join(
                f"{count} {name}" for name, count in outcomes.items()
            )
            lines.append(
                f"  {protocol}: {len(group)} runs, slots "
                f"min {min(slots)} / mean {sum(slots) / len(slots):.1f} / "
                f"max {max(slots)} ({outcome_text})"
            )
    experiments = [r for r in records if r.get("kind") == "experiment"]
    if experiments:
        lines.append(f"experiments: {len(experiments)}")
        for experiment_id in sorted({r["experiment"] for r in experiments}):
            group = [r for r in experiments if r["experiment"] == experiment_id]
            elapsed = sum(r["elapsed_s"] for r in group)
            lines.append(
                f"  {experiment_id}: {len(group)} tables, "
                f"{sum(r['rows'] for r in group)} rows, {elapsed:.2f}s"
            )
    campaigns = [r for r in records if r.get("kind") == "campaign"]
    if campaigns:
        lines.append(f"campaign points: {len(campaigns)}")
        for name in sorted({r["campaign"] for r in campaigns}):
            group = [r for r in campaigns if r["campaign"] == name]
            lines.append(
                f"  {name}: {len(group)} points, "
                f"{sum(r['trials'] for r in group)} trials"
            )
    anomalies = [r for r in records if r.get("kind") == "anomaly"]
    if anomalies:
        lines.append(f"anomalies: {len(anomalies)}")
        for rule in sorted({r["rule"] for r in anomalies}):
            group = [r for r in anomalies if r["rule"] == rule]
            lines.append(f"  {rule}: {len(group)}")
    return "\n".join(lines)


def tail_records(
    records: Iterable[Mapping[str, Any]], limit: int
) -> list[dict[str, Any]]:
    """The last *limit* records of an iterable, as dictionaries."""
    tail = list(records)[-max(0, limit):] if limit else []
    return [dict(record) for record in tail]
