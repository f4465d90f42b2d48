"""A process-safe metrics registry: counters, gauges, and histograms.

The telemetry layer (:mod:`repro.obs.telemetry`) records *what
happened* per run; this module provides the live, first-class metrics
model the campaign era needs on top of it — named instruments with
label sets, constant memory, and deterministic cross-process merging:

- :class:`Counter` — a monotonically increasing count (broadcasts,
  collisions, deliveries).
- :class:`Gauge` — a last-written value plus running extremes (queue
  depth, peak contention, resident memory).
- :class:`Histogram` — a fixed-bucket distribution built on
  :class:`~repro.obs.aggregators.FixedHistogram` +
  :class:`~repro.obs.aggregators.StreamingStat`, so memory never
  depends on sample count.

All instruments hang off a :class:`MetricsRegistry`.  The registry is
*process-safe* in the sense the deterministic parallel layer needs:
within a process every mutation takes an internal lock (safe under
threads), and across processes nothing is shared — each
:func:`repro.perf.pmap_trials` worker owns a private registry, exports
a :meth:`~MetricsRegistry.snapshot`, and the parent folds the
snapshots with :meth:`~MetricsRegistry.merge` /
:func:`merge_snapshots` in worker-index order, so the consolidated
values are identical at any worker count (see
:func:`repro.perf.merge.merged_metrics`).

Every instrument carries a ``category`` — ``"protocol"`` (a
deterministic function of ``(config, seed)``: slots, collisions,
deliveries) or ``"timing"`` (wall-time and resource readings that
legitimately vary run to run).  The cross-run diff layer
(:mod:`repro.obs.regress`) uses the category to demand bit-equality
from protocol metrics while treating timing metrics statistically.

Engine wiring is one function: :func:`count_run` folds the
:class:`~repro.sim.engine.RunTotals` that ``Engine.run(totals=True)``
returns into a registry, so the engine itself never imports this
module and a metrics run keeps the fast (or columnar) kernel.
:class:`ResourceSampler` captures RSS / CPU-time / GC deltas around a
run for the ``resources`` telemetry field.  Prometheus text-format
export (:func:`render_prometheus`) makes every snapshot scrapeable by
a future ``repro serve`` with zero new plumbing.

Protocol modules must not import this module (lint rule R4): metrics
see engine-side ground truth, and a node that read a registry would be
reaching outside its ``NodeView``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.obs.aggregators import FixedHistogram, StreamingStat

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.engine import RunResult

#: Version stamped into (and required of) every metrics snapshot.
METRICS_SCHEMA_VERSION = 1

#: Allowed instrument categories (see module docstring).
METRIC_CATEGORIES = ("protocol", "timing")

#: Allowed instrument types in a snapshot.
METRIC_TYPES = ("counter", "gauge", "histogram")


class MetricsError(ValueError):
    """An invalid metric name, label set, or snapshot."""


def _check_name(name: str) -> str:
    """Validate a Prometheus-compatible metric or label name."""
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise MetricsError(f"invalid metric/label name {name!r}")
    for char in name:
        if not (char.isalnum() or char in "_:"):
            raise MetricsError(f"invalid metric/label name {name!r}")
    return name


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, str]
) -> tuple[str, ...]:
    """The canonical child key for one concrete label assignment."""
    if set(labels) != set(label_names):
        raise MetricsError(
            f"labels {sorted(labels)} do not match declared {sorted(label_names)}"
        )
    return tuple(str(labels[name]) for name in label_names)


@dataclass
class _Instrument:
    """Shared shell: name, help text, label names, child series."""

    name: str
    help: str
    label_names: tuple[str, ...]
    category: str

    def __post_init__(self) -> None:
        _check_name(self.name)
        for label in self.label_names:
            _check_name(label)
        if self.category not in METRIC_CATEGORIES:
            raise MetricsError(
                f"category {self.category!r}, expected one of {METRIC_CATEGORIES}"
            )
        self._children: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def _child(self, labels: Mapping[str, str]) -> Any:
        key = _label_key(self.label_names, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _new_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> list[tuple[tuple[str, ...], Any]]:
        """(label values, child) pairs in sorted label order."""
        with self._lock:
            return sorted(self._children.items())


class Counter(_Instrument):
    """A monotonically increasing count, optionally per label set."""

    def _new_child(self) -> list[float]:
        # One-element list: a mutable float cell without a class per child.
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add *amount* (must be non-negative) to the labelled series."""
        if amount < 0:
            raise MetricsError(f"counter increment must be >= 0, got {amount}")
        cell = self._child(labels)
        with self._lock:
            cell[0] += amount

    def value(self, **labels: str) -> float:
        """The current count of the labelled series."""
        return self._child(labels)[0]


class Gauge(_Instrument):
    """A last-written value with running min/max, per label set."""

    def _new_child(self) -> dict[str, float | None]:
        return {"value": 0.0, "min": None, "max": None}

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to *value*, tracking extremes."""
        cell = self._child(labels)
        value = float(value)
        with self._lock:
            cell["value"] = value
            if cell["min"] is None or value < cell["min"]:  # type: ignore[operator]
                cell["min"] = value
            if cell["max"] is None or value > cell["max"]:  # type: ignore[operator]
                cell["max"] = value

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Adjust the labelled series by *amount* (may be negative)."""
        cell = self._child(labels)
        self.set(float(cell["value"] or 0.0) + amount, **labels)

    def value(self, **labels: str) -> float:
        """The last value written to the labelled series."""
        return float(self._child(labels)["value"] or 0.0)


class Histogram(_Instrument):
    """A fixed-bucket distribution plus exact streaming moments.

    Backed by one :class:`~repro.obs.aggregators.FixedHistogram` (bucket
    counts) and one :class:`~repro.obs.aggregators.StreamingStat`
    (count / min / max / mean / variance) per label set, so the memory
    is ``buckets + 1`` integers plus five floats no matter how many
    samples are observed.
    """

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        category: str,
        *,
        width: float = 1.0,
        buckets: int = 16,
    ) -> None:
        self.width = width
        self.buckets = buckets
        super().__init__(name, help, label_names, category)

    def _new_child(self) -> tuple[FixedHistogram, StreamingStat]:
        return (
            FixedHistogram(width=self.width, buckets=self.buckets),
            StreamingStat(),
        )

    def observe(self, value: float, **labels: str) -> None:
        """Absorb one (non-negative) sample into the labelled series."""
        histogram, stat = self._child(labels)
        with self._lock:
            histogram.push(value)
            stat.push(value)

    def stat(self, **labels: str) -> StreamingStat:
        """The labelled series' streaming moments."""
        return self._child(labels)[1]


class MetricsRegistry:
    """A named set of instruments with snapshot / restore / merge.

    Instruments are created through the factory methods and are
    idempotent: asking twice for the same name returns the same object,
    provided the declaration (type, labels, category) matches —
    anything else raises :class:`MetricsError`, because two call sites
    silently disagreeing about a metric is how dashboards lie.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _declare(self, cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricsError(
                        f"metric {name!r} already declared as "
                        f"{type(existing).__name__.lower()}"
                    )
                if existing.label_names != kwargs["label_names"] or (
                    existing.category != kwargs["category"]
                ):
                    raise MetricsError(
                        f"metric {name!r} re-declared with different "
                        "labels or category"
                    )
                return existing
            instrument = cls(name=name, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        *,
        labels: Iterable[str] = (),
        category: str = "protocol",
    ) -> Counter:
        """Declare (or fetch) a counter."""
        return self._declare(
            Counter, name, help=help, label_names=tuple(labels), category=category
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        *,
        labels: Iterable[str] = (),
        category: str = "protocol",
    ) -> Gauge:
        """Declare (or fetch) a gauge."""
        return self._declare(
            Gauge, name, help=help, label_names=tuple(labels), category=category
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        labels: Iterable[str] = (),
        category: str = "protocol",
        width: float = 1.0,
        buckets: int = 16,
    ) -> Histogram:
        """Declare (or fetch) a histogram."""
        with self._lock:
            existing = self._instruments.get(name)
        if existing is not None and isinstance(existing, Histogram):
            if (existing.width, existing.buckets) != (width, buckets):
                raise MetricsError(
                    f"histogram {name!r} re-declared with different buckets"
                )
        return self._declare(
            Histogram,
            name,
            help=help,
            label_names=tuple(labels),
            category=category,
            width=width,
            buckets=buckets,
        )

    def instruments(self) -> dict[str, _Instrument]:
        """Name -> instrument, in sorted name order."""
        with self._lock:
            return dict(sorted(self._instruments.items()))

    # -- snapshot / restore / merge ------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready, versioned dump of every series.

        The form is deterministic (sorted names, sorted label values)
        so two snapshots of equal registries are equal objects — which
        is what lets telemetry records embed them and
        :mod:`repro.obs.regress` diff them structurally.
        """
        metrics: dict[str, Any] = {}
        for name, instrument in self.instruments().items():
            entry: dict[str, Any] = {
                "type": _metric_type(instrument),
                "help": instrument.help,
                "labels": list(instrument.label_names),
                "category": instrument.category,
                "series": [],
            }
            if isinstance(instrument, Histogram):
                entry["width"] = instrument.width
                entry["buckets"] = instrument.buckets
            for values, child in instrument.series():
                series: dict[str, Any] = {"labels": list(values)}
                if isinstance(instrument, Counter):
                    series["value"] = child[0]
                elif isinstance(instrument, Gauge):
                    series["value"] = child["value"]
                    series["min"] = child["min"]
                    series["max"] = child["max"]
                else:
                    histogram, stat = child
                    series["histogram"] = histogram.as_dict()
                    series["stat"] = stat.as_dict()
                    series["sum"] = round(stat.mean * stat.count, 6)
                entry["series"].append(series)
            metrics[name] = entry
        return {"schema": METRICS_SCHEMA_VERSION, "metrics": metrics}

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dump."""
        problems = validate_snapshot(snapshot)
        if problems:
            raise MetricsError("invalid snapshot: " + "; ".join(problems))
        registry = cls()
        registry.merge(snapshot)
        return registry

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or snapshot) into this one.

        Counters and histogram series add; gauges keep the *other*
        value (last write wins, in merge-call order) and fold extremes.
        Merging is deterministic in call order, which the parallel
        layer fixes to worker-index order — so a parallel run's merged
        metrics equal the serial run's.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name in sorted(snapshot.get("metrics", {})):
            entry = snapshot["metrics"][name]
            labels = tuple(entry.get("labels", ()))
            category = entry.get("category", "protocol")
            kind = entry["type"]
            for series in entry.get("series", []):
                values = dict(zip(labels, series.get("labels", ())))
                if kind == "counter":
                    self.counter(
                        name, entry.get("help", ""), labels=labels, category=category
                    ).inc(float(series["value"]), **values)
                elif kind == "gauge":
                    gauge = self.gauge(
                        name, entry.get("help", ""), labels=labels, category=category
                    )
                    gauge.set(float(series["value"] or 0.0), **values)
                    cell = gauge._child(values)
                    for bound, better in (("min", min), ("max", max)):
                        incoming = series.get(bound)
                        if incoming is not None:
                            current = cell[bound]
                            cell[bound] = (
                                incoming
                                if current is None
                                else better(current, incoming)
                            )
                else:
                    histogram = self.histogram(
                        name,
                        entry.get("help", ""),
                        labels=labels,
                        category=category,
                        width=entry.get("width", 1.0),
                        buckets=entry.get("buckets", 16),
                    )
                    child_hist, child_stat = histogram._child(values)
                    counts = series["histogram"]["counts"] + [
                        series["histogram"]["overflow"]
                    ]
                    for index, count in enumerate(counts):
                        child_hist.counts[index] += count
                    child_stat.merge(_stat_from_dict(series["stat"]))


def _metric_type(instrument: _Instrument) -> str:
    if isinstance(instrument, Counter):
        return "counter"
    if isinstance(instrument, Gauge):
        return "gauge"
    return "histogram"


def _stat_from_dict(data: Mapping[str, Any]) -> StreamingStat:
    """Rebuild a :class:`StreamingStat` from its ``as_dict`` form."""
    stat = StreamingStat()
    count = int(data.get("count", 0))
    if count == 0:
        return stat
    stat.count = count
    stat.minimum = data.get("min")
    stat.maximum = data.get("max")
    stat._mean = float(data.get("mean", 0.0))
    stat._m2 = float(data.get("variance", 0.0)) * count
    return stat


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold snapshots (in iteration order) into one combined snapshot."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def validate_snapshot(snapshot: Any) -> list[str]:
    """Check a metrics snapshot's shape; return the problems found."""
    problems: list[str] = []
    if not isinstance(snapshot, Mapping):
        return [f"snapshot is {type(snapshot).__name__}, expected object"]
    if snapshot.get("schema") != METRICS_SCHEMA_VERSION:
        problems.append(
            f"snapshot schema is {snapshot.get('schema')!r}, "
            f"expected {METRICS_SCHEMA_VERSION}"
        )
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, Mapping):
        problems.append("snapshot.metrics must be an object")
        return problems
    for name in sorted(metrics):
        entry = metrics[name]
        if not isinstance(entry, Mapping):
            problems.append(f"{name}: entry must be an object")
            continue
        if entry.get("type") not in METRIC_TYPES:
            problems.append(f"{name}: type must be one of {METRIC_TYPES}")
        if entry.get("category", "protocol") not in METRIC_CATEGORIES:
            problems.append(f"{name}: category must be one of {METRIC_CATEGORIES}")
        series = entry.get("series")
        if not isinstance(series, list):
            problems.append(f"{name}: series must be a list")
            continue
        label_count = len(entry.get("labels", ()))
        for item in series:
            if not isinstance(item, Mapping):
                problems.append(f"{name}: series entries must be objects")
                break
            if len(item.get("labels", ())) != label_count:
                problems.append(f"{name}: series label arity mismatch")
            if entry.get("type") in ("counter", "gauge") and not isinstance(
                item.get("value"), (int, float)
            ):
                problems.append(f"{name}: series value must be a number")
            if entry.get("type") == "histogram" and not isinstance(
                item.get("histogram"), Mapping
            ):
                problems.append(f"{name}: histogram series needs bucket counts")
    return problems


# ----------------------------------------------------------------------
# Prometheus text-format export
# ----------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(source: "MetricsRegistry | Mapping[str, Any]") -> str:
    """Render a registry or snapshot in Prometheus text format 0.0.4.

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
    The output is deterministic (sorted metric names and label values),
    so it can be asserted against byte for byte — and served verbatim
    from a ``/metrics`` endpoint.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: list[str] = []
    for name in sorted(snapshot.get("metrics", {})):
        entry = snapshot["metrics"][name]
        kind = entry["type"]
        exported = f"{name}_total" if kind == "counter" else name
        if entry.get("help"):
            lines.append(f"# HELP {exported} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {exported} {kind}")
        labels = entry.get("labels", [])
        for series in entry.get("series", []):
            values = series.get("labels", [])
            label_text = _label_text(labels, values)
            if kind in ("counter", "gauge"):
                lines.append(f"{exported}{label_text} {_number(series['value'])}")
                continue
            histogram = series["histogram"]
            width = entry.get("width", histogram.get("width", 1.0))
            cumulative = 0
            for index, count in enumerate(histogram["counts"]):
                cumulative += count
                edge = _number((index + 1) * width)
                bucket_labels = _label_text(
                    list(labels) + ["le"], list(values) + [edge]
                )
                lines.append(f"{exported}_bucket{bucket_labels} {cumulative}")
            cumulative += histogram["overflow"]
            inf_labels = _label_text(list(labels) + ["le"], list(values) + ["+Inf"])
            lines.append(f"{exported}_bucket{inf_labels} {cumulative}")
            lines.append(f"{exported}_sum{label_text} {_number(series['sum'])}")
            lines.append(f"{exported}_count{label_text} {cumulative}")
    return "\n".join(lines) + ("\n" if lines else "")


def _number(value: float) -> str:
    """Prometheus sample formatting: integral floats print as integers."""
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


# ----------------------------------------------------------------------
# Engine wiring: counting a run
# ----------------------------------------------------------------------


def count_run(registry: MetricsRegistry, result: "RunResult", *, protocol: str) -> None:
    """Fold one engine run's slots and totals into *registry*.

    Maintains the standard simulation instrument set — slots, runs,
    broadcasts, collisions, deliveries, wasted listens, contention
    distribution — labelled by *protocol*, with the accounting of
    :func:`repro.sim.metrics.compute_metrics`, so ``sim_broadcasts`` /
    ``sim_collisions`` / ``sim_deliveries`` / ``sim_wasted_listens`` /
    ``sim_peak_contention`` equal the matching
    :class:`~repro.sim.metrics.TraceMetrics` fields of a full trace of
    the same run, jamming included.  Every kernel returns the same
    totals, so the snapshot is byte-identical whichever kernel ran, and
    the registry's protocol-category values stay a pure function of
    ``(config, seed)``.

    *result* must come from ``run(totals=True)``; one without totals
    raises ``ValueError``.  The contention counts are folded in their
    (slot, ascending channel) order, so histogram and streaming-stat
    state match a fold of the run's channel events observation for
    observation.  Series are created only for quantities the run had
    (e.g. no ``sim_collisions`` series in a collision-free run).
    """
    totals = result.totals
    if totals is None:
        raise ValueError("count_run needs a result from run(totals=True)")
    by_protocol = ("protocol",)
    slots = registry.counter("sim_slots", "slots executed", labels=by_protocol)
    runs = registry.counter("sim_runs", "engine runs observed", labels=by_protocol)
    broadcasts = registry.counter(
        "sim_broadcasts", "broadcast attempts", labels=by_protocol
    )
    collisions = registry.counter(
        "sim_collisions", "contended channel-slots", labels=by_protocol
    )
    deliveries = registry.counter(
        "sim_deliveries", "messages delivered to listeners", labels=by_protocol
    )
    wasted_listens = registry.counter(
        "sim_wasted_listens", "listens that heard nothing", labels=by_protocol
    )
    contention = registry.histogram(
        "sim_contention",
        "broadcasters per active channel-slot",
        labels=by_protocol,
        width=1.0,
        buckets=16,
    )
    peak_contention = registry.gauge(
        "sim_peak_contention", "largest contender group", labels=by_protocol
    )
    runs.inc(protocol=protocol)
    if result.slots:
        slots.inc(result.slots, protocol=protocol)
    if totals.contention:
        broadcast_count = 0
        collision_count = 0
        # One child lookup for the run, not one per observation.
        histogram, stat = contention._child({"protocol": protocol})
        peak = peak_contention.value(protocol=protocol)
        with contention._lock:
            for contenders in totals.contention:
                histogram.push(contenders)
                stat.push(contenders)
                broadcast_count += contenders
                if contenders >= 2:
                    collision_count += 1
                # Gauge min/max track every set() call, so replay the
                # running-maximum set sequence, not one final set.
                if contenders > peak:
                    peak = contenders
                    peak_contention.set(contenders, protocol=protocol)
        broadcasts.inc(broadcast_count, protocol=protocol)
        if collision_count:
            collisions.inc(collision_count, protocol=protocol)
        deliveries.inc(totals.deliveries, protocol=protocol)
    if totals.wasted_listens:
        wasted_listens.inc(totals.wasted_listens, protocol=protocol)


# ----------------------------------------------------------------------
# Resource sampling
# ----------------------------------------------------------------------


class ResourceSampler:
    """RSS / CPU-time / GC deltas around a run (``resources`` field).

    Readings come from :func:`resource.getrusage` and :mod:`gc` — no
    wall clock (rule R2 intact) and no third-party dependency.  Use as
    a context manager or call :meth:`start` / :meth:`delta` manually;
    platforms without the :mod:`resource` module degrade to GC-only
    sampling rather than failing.
    """

    def __init__(self) -> None:
        self._start: dict[str, float] | None = None

    @staticmethod
    def _read() -> dict[str, float]:
        import gc

        reading: dict[str, float] = {
            "gc_collections": float(
                sum(generation["collections"] for generation in gc.get_stats())
            ),
            "gc_objects": float(len(gc.get_objects())),
        }
        try:
            import resource
        except ImportError:  # pragma: no cover - POSIX-only module
            return reading
        usage = resource.getrusage(resource.RUSAGE_SELF)
        reading["max_rss_kb"] = float(usage.ru_maxrss)
        reading["cpu_user_s"] = usage.ru_utime
        reading["cpu_system_s"] = usage.ru_stime
        return reading

    def start(self) -> "ResourceSampler":
        """Capture the baseline reading; returns self for chaining."""
        self._start = self._read()
        return self

    def delta(self) -> dict[str, float]:
        """Readings since :meth:`start` (gauges report current values).

        ``max_rss_kb`` and ``gc_objects`` are level readings (current
        process state); ``cpu_*`` and ``gc_collections`` are deltas
        over the sampled window.
        """
        if self._start is None:
            raise MetricsError("ResourceSampler.delta() before start()")
        now = self._read()
        out: dict[str, float] = {}
        for key in sorted(now):
            if key in ("max_rss_kb", "gc_objects"):
                out[key] = now[key]
            else:
                out[key] = round(now[key] - self._start.get(key, 0.0), 6)
        return out

    def __enter__(self) -> "ResourceSampler":
        """Context entry: capture the baseline."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context exit: nothing to release (read :meth:`delta` yourself)."""

    def to_registry(
        self, registry: MetricsRegistry, *, prefix: str = "process"
    ) -> dict[str, float]:
        """Record the current delta into *registry* as timing gauges."""
        values = self.delta()
        for key in sorted(values):
            registry.gauge(
                f"{prefix}_{key}", f"resource sampler {key}", category="timing"
            ).set(values[key])
        return values
