"""Traced mode: wrap repro's public callables from outside and keep spans.

:func:`install` replaces each target callable with a timing wrapper at
every place a loaded ``repro.*`` module holds it (module attributes,
module-level dicts such as ``GENERATORS``, and class attributes for
methods).  Nothing under ``src/`` changes, and the wrappers attach no
probe, so every kernel engages exactly as in an untraced run.

Spans are ``[layer, start, end, parent, unit, pid]`` records kept in
memory.  Read verbs run in child interpreters (see ``verb.py``); their
spans are dumped to a file at exit and adopted into the parent's list
under the unit that spawned them, on the same ``perf_counter`` clock
(``CLOCK_MONOTONIC`` is system-wide).  A layer's self time is its span
time minus the part its child spans and the drift clock's reference
samples cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from time import perf_counter
from typing import Any, Callable, Mapping, Sequence

#: Root span of one timed unit; its self time is the unattributed time.
UNIT = "unit"

#: Span name -> name of its self-time metric.
TIME_METRICS = {
    "assignment": "assignment.s",
    "sim.channels": "sim.channels.s",
    "sim.engine.build": "sim.engine.build.s",
    "sim.engine.run": "sim.engine.run.s",
    "sim.backends.vector": "sim.backends.vector.s",
    "core.runners": "core.runners.s",
    "baselines.runners": "baselines.runners.s",
    "experiments": "experiments.s",
    "perf": "perf.s",
    "analysis": "analysis.s",
    "games": "games.s",
    "obs.metrics": "obs.metrics.s",
    "obs.provenance": "obs.provenance.s",
    "obs.telemetry.record": "obs.telemetry.record_s",
    "obs.telemetry.emit": "obs.telemetry.emit_s",
    "obs.store.ingest": "obs.store.ingest_s",
    "obs.telemetry.read": "obs.telemetry.read_s",
    "obs.store.load": "obs.store.load_s",
    "obs.query": "obs.query.s",
    "obs.regress": "obs.regress.s",
    "obs.cli.import": "obs.cli.import_s",
    UNIT: "unattributed_s",
}

#: Span name -> name of the metric counting its calls.
CALL_METRICS = {
    "assignment": "assignment.calls",
    "sim.channels": "sim.channels.calls",
    "sim.engine.run": "sim.engine.run.runs",
    "sim.backends.vector": "sim.backends.vector.runs",
    "core.runners": "core.runners.calls",
    "baselines.runners": "baselines.runners.calls",
    "experiments": "experiments.calls",
    "perf": "perf.calls",
    "analysis": "analysis.calls",
    "games": "games.calls",
    "obs.metrics": "obs.metrics.snapshots",
    "obs.provenance": "obs.provenance.calls",
    "obs.telemetry.emit": "obs.telemetry.records",
    "obs.regress": "obs.regress.calls",
}

#: Counts the wrappers' hooks record (work done inside a layer).
HOOK_COUNTS = (
    "sim.engine.build.nodes",
    "sim.engine.run.node_slots",
    "sim.backends.vector.node_slots",
    "sim.backends.vector.fallbacks",
    "obs.telemetry.bytes",
    "obs.store.ingested",
    "obs.store.deduplicated",
    "obs.telemetry.records_read",
    "obs.store.objects_loaded",
    "obs.query.rows",
)

#: Execution-path counters: runs per requested backend and kernel.
PATH_METRICS = (
    "sim.path.exact.fast_runs",
    "sim.path.exact.general_runs",
    "sim.path.vector.columnar_runs",
    "sim.path.vector.fallback_runs",
    "sim.path.vector-replay.columnar_runs",
    "sim.path.vector-replay.fallback_runs",
)

#: Shares of a layer's runs: ``(metric, hook count, layer)``.
SHARE_METRICS = (
    ("sim.engine.run.fast_path_share", "fast_runs", "sim.engine.run"),
    ("sim.backends.vector.engaged_share", "engaged_runs", "sim.backends.vector"),
)


class Tracer:
    """Spans, counts and execution paths of one traced run.

    ``spans[i]`` is ``[layer, start, end, parent, unit, pid]`` in
    opening order; *parent* is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        #: ``(backend, fast_path_engaged, vector_fallback_reason) -> runs``.
        self.paths: Counter[tuple[str, bool, str | None]] = Counter()
        #: Id of the unit running now; wrappers record only inside a unit.
        self.unit: str | None = None
        self._stack: list[int] = []

    def begin(self, layer: str) -> int:
        """Open a span of *layer* under the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent, self.unit, self.pid])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, *index*."""
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        self.counts[f"calls:{span[0]}"] += 1

    def current_layer(self) -> str | None:
        """Layer of the innermost open span, if any."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def adopt(self, path: str, parent: int) -> None:
        """Append a child interpreter's dumped spans (see :func:`dump`).

        The child's root spans hang under span *parent* (the unit that
        spawned it) and take that span's unit id.
        """
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        offset = len(self.spans)
        unit = self.spans[parent][4]
        for layer, start, end, child_parent, _, pid in document["spans"]:
            self.spans.append(
                [
                    layer,
                    start,
                    end,
                    parent if child_parent < 0 else child_parent + offset,
                    unit,
                    pid,
                ]
            )
        self.counts.update(document["counts"])

    def self_times(
        self, factors: Mapping[str, float], ticks: Sequence[tuple[float, float]]
    ) -> dict[str, float]:
        """Drift-corrected self time per layer, summed over every span.

        *factors* maps a unit id to the drift correction of that unit's
        execution (:meth:`refclock.Sample.factor`).  *ticks* are the
        ``(start, end)`` intervals, in order, of the reference samples
        taken during units (:attr:`refclock.DriftClock.ticks`); they are
        benchmark work, so each span loses the ticks that start inside
        it, and the layers add up to the corrected unit times.  A tick
        never straddles a span's edge: it runs between two bytecodes of
        this process, and a read verb's child shares this process's CPU.
        """
        starts = [start for start, _ in ticks]
        sampled = list(accumulate((end - start for start, end in ticks), initial=0.0))

        def busy_s(start: float, end: float) -> float:
            first, last = bisect_left(starts, start), bisect_left(starts, end)
            return end - start - (sampled[last] - sampled[first])

        busy = [busy_s(span[1], span[2]) for span in self.spans]
        covered = [0.0] * len(self.spans)
        for index, (layer, start, end, parent, unit, pid) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += busy[index]
        totals: dict[str, float] = {}
        for index, (layer, start, end, parent, unit, pid) in enumerate(self.spans):
            own = (busy[index] - covered[index]) * factors[unit]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def chrome_trace(self, name: str) -> dict[str, Any]:
        """The spans as a Chrome trace-event document (opens in Perfetto)."""
        base = min((span[1] for span in self.spans), default=0.0)
        events: list[dict[str, Any]] = []
        for pid in sorted({span[5] for span in self.spans}):
            label = name if pid == self.pid else f"{name}: read verb"
            events.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": 1, "args": {"name": label}}
            )
        for layer, start, end, parent, unit, pid in self.spans:
            events.append(
                {
                    "ph": "X",
                    "name": layer,
                    "cat": "perfbench",
                    "pid": pid,
                    "tid": 1,
                    "ts": (start - base) * 1e6,
                    "dur": max((end - start) * 1e6, 0.001),
                    "args": {"unit": unit},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump(tracer: Tracer, path: str) -> None:
    """Write a child interpreter's spans and counts for the parent to adopt."""
    document = {
        "pid": tracer.pid,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


# ----------------------------------------------------------------------
# Hooks: counts read off a call's arguments and result after it returns
# ----------------------------------------------------------------------


def _after_build(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    network = args[0] if args else kwargs["network"]
    tracer.counts["sim.engine.build.nodes"] += network.num_nodes


def _after_engine_run(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    engine = args[0]
    tracer.counts["sim.engine.run.node_slots"] += engine.network.num_nodes * result.slots
    if engine.fast_path_engaged:
        tracer.counts["fast_runs"] += 1
    if tracer.current_layer() != "sim.backends.vector":
        tracer.paths[("exact", bool(engine.fast_path_engaged), None)] += 1


def _after_vector_run(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    engine = args[0]
    backend = "vector-replay" if engine.rng_mode == "replay" else "vector"
    if engine.vector_engaged:
        tracer.counts["engaged_runs"] += 1
        tracer.counts["sim.backends.vector.node_slots"] += (
            engine.network.num_nodes * result.slots
        )
    else:
        tracer.counts["sim.backends.vector.fallbacks"] += 1
    tracer.paths[
        (backend, bool(engine.fast_path_engaged), engine.vector_fallback_reason)
    ] += 1


def _after_ingest(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["obs.store.ingested"] += result.ingested
    tracer.counts["obs.store.deduplicated"] += result.deduplicated


def _after_read(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["obs.telemetry.records_read"] += len(result)


def _after_load(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["obs.store.objects_loaded"] += 1


def _after_query(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["obs.query.rows"] += len(result)


Hook = Callable[[Tracer, tuple, dict, Any], None]

#: ``(module, function names, layer, hook)``; ``None`` names mean every
#: public function the module defines itself.
FUNCTION_TARGETS: tuple[tuple[str, tuple[str, ...] | None, str, Hook | None], ...] = (
    ("repro.assignment.generators", None, "assignment", None),
    ("repro.assignment.jammed", ("jammed_dynamic_schedule", "random_jam_schedule"), "assignment", None),
    ("repro.sim.engine", ("build_engine",), "sim.engine.build", _after_build),
    ("repro.core.runners", ("run_local_broadcast", "run_data_aggregation", "run_gossip"), "core.runners", None),
    ("repro.baselines.runners", None, "baselines.runners", None),
    ("repro.perf.executor", ("pmap_trials",), "perf", None),
    ("repro.obs.provenance", ("provenance_block",), "obs.provenance", None),
    ("repro.obs.telemetry", ("run_record", "campaign_record"), "obs.telemetry.record", None),
    ("repro.obs.telemetry", ("read_telemetry",), "obs.telemetry.read", _after_read),
    ("repro.obs.query", ("run_query",), "obs.query", _after_query),
    ("repro.obs.regress", ("diff_files",), "obs.regress", None),
)

#: ``(module, class, method, layer, hook)``.
METHOD_TARGETS: tuple[tuple[str, str, str, str, Hook | None], ...] = (
    ("repro.sim.channels", "ChannelAssignment", "shuffled_labels", "assignment", None),
    ("repro.sim.channels", "Network", "static", "sim.channels", None),
    ("repro.sim.channels", "StaticSchedule", "__init__", "sim.channels", None),
    ("repro.sim.channels", "DynamicSchedule", "__init__", "sim.channels", None),
    ("repro.sim.engine", "Engine", "run", "sim.engine.run", _after_engine_run),
    ("repro.sim.backends.vector", "VectorEngine", "run", "sim.backends.vector", _after_vector_run),
    ("repro.experiments.campaign", "Campaign", "run", "experiments", None),
    ("repro.obs.metrics", "MetricsRegistry", "snapshot", "obs.metrics", None),
    ("repro.obs.telemetry", "TelemetrySink", "emit", "obs.telemetry.emit", None),
    ("repro.obs.store", "RunStore", "ingest", "obs.store.ingest", _after_ingest),
    ("repro.obs.store", "RunStore", "manifest", "obs.store.load", None),
    ("repro.obs.store", "RunStore", "entries", "obs.store.load", None),
    ("repro.obs.store", "RunStore", "load", "obs.store.load", _after_load),
)

#: Packages whose every public function (``__all__``) is one layer.
PACKAGE_TARGETS = (("repro.analysis", "analysis"), ("repro.games", "games"))


def _wrap(tracer: Tracer, layer: str, function: Callable, hook: Hook | None) -> Callable:
    @functools.wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if tracer.unit is None:
            return function(*args, **kwargs)
        span = tracer.begin(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def _own_functions(module: Any) -> list[str]:
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    )


def install(tracer: Tracer) -> None:
    """Wrap every target callable where loaded ``repro`` code holds it.

    Target modules are imported first, so a function a caller imports
    lazily later (``from repro.perf import pmap_trials`` inside a
    function) resolves to the wrapper.
    """
    replacements: dict[int, Callable] = {}
    for module_name, names, layer, hook in FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        for name in names if names is not None else _own_functions(module):
            original = getattr(module, name)
            replacements[id(original)] = _wrap(tracer, layer, original, hook)
    for package_name, layer in PACKAGE_TARGETS:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            original = getattr(package, name)
            if inspect.isfunction(original):
                replacements[id(original)] = _wrap(tracer, layer, original, None)
    for module_name, class_name, method, layer, hook in METHOD_TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(owner, method, classmethod(_wrap(tracer, layer, raw.__func__, hook)))
        else:
            setattr(owner, method, _wrap(tracer, layer, raw, hook))
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, name, wrapper)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    wrapper = replacements.get(id(entry))
                    if wrapper is not None:
                        value[key] = wrapper


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def per_layer_names() -> list[str]:
    """Every per-layer metric name traced mode prints, in print order."""
    names = ["setup.import_s", "setup.inputs_s"]
    names += [metric for layer, metric in TIME_METRICS.items()]
    names += list(CALL_METRICS.values())
    names += list(HOOK_COUNTS)
    names += [metric for metric, _, _ in SHARE_METRICS]
    names += list(PATH_METRICS)
    names.append("tracing_overhead")
    return names


def path_counts(paths: Mapping[tuple[str, bool, str | None], int]) -> dict[str, int]:
    """Fold ``(backend, fast_path, fallback reason)`` runs into :data:`PATH_METRICS`."""
    counts = {metric: 0 for metric in PATH_METRICS}
    for (backend, fast_path, reason), runs in paths.items():
        if backend == "exact":
            kernel = "fast_runs" if fast_path else "general_runs"
        else:
            kernel = "fallback_runs" if reason is not None else "columnar_runs"
        counts[f"sim.path.{backend}.{kernel}"] += runs
    return counts
