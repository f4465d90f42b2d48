"""The workload process: set up one workload, then measure it.

Started by ``run.py``, never by hand.  It prints one ready line on
stdout when set-up is done (imports, then inputs, each timed against
the reference loop), then, unless ``--setup-only``, repeats the
workload's units round-robin for the given seconds, each timed against
the reference loop (see ``refclock.py``), checks every output, and
writes its result to ``--result``.  With ``--trace``, the first half of the time is measured
untraced and the second half traced (see ``tracing.py``); the traced
passes give the per-layer metrics and the untraced ones the base of
``tracing_overhead``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any

import refclock
import tracing

if TYPE_CHECKING:
    import workloads

#: Problems kept in the result (the count is always complete).
MAX_PROBLEMS = 20


class Measurement:
    """Per-unit samples, failures and (when traced) spans of one run."""

    def __init__(self, clock: refclock.DriftClock, workload: "workloads.Workload") -> None:
        self.workload = workload
        self.clock = clock
        self.samples: dict[bool, dict[str, list[refclock.Sample]]] = {False: {}, True: {}}
        self.unit_samples: dict[str, refclock.Sample] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self.traced_passes = 0
        self.tracer: tracing.Tracer | None = None

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        room = MAX_PROBLEMS - len(self.problems)
        self.problems.extend(problems[: max(room, 0)])

    def _run_unit(self, unit: "workloads.Unit") -> None:
        tracer = self.tracer
        unit_id = f"{self.passes}/{unit.name}"
        if tracer is None:
            result, sample, error = self.clock.time(unit.call)
        else:
            root = -1

            def traced() -> Any:
                nonlocal root
                tracer.unit = unit_id
                root = tracer.begin(tracing.UNIT)
                try:
                    return unit.call()
                finally:
                    tracer.end(root)
                    tracer.unit = None

            result, sample, error = self.clock.time(traced)
            span_file = getattr(result, "span_file", None)
            if span_file is not None and Path(span_file).exists():
                tracer.adopt(span_file, root)
        self.attempted += 1
        self.samples[tracer is not None].setdefault(unit.name, []).append(sample)
        self.unit_samples[unit_id] = sample
        if error is not None:
            detail = "".join(traceback.format_exception_only(type(error), error)).strip()
            self._fail([f"{unit.name}: raised {detail}"])
            return
        problems = self.workload.check(unit, result)
        if problems:
            self._fail(problems)

    def measure(self, seconds: float, *, traced: bool) -> None:
        """Repeat the units round-robin for *seconds* (at least one pass).

        Untraced measuring stops at a unit boundary, since every unit's
        median stands alone; traced measuring stops at a pass boundary,
        since per-layer counts are reported per pass.
        """
        units = self.workload.units()
        deadline = perf_counter() + seconds
        first = self.passes
        while True:
            self.workload.begin_pass(self.passes)
            if traced:
                paths_before = Counter(self.tracer.paths)
            for unit in units:
                if not traced and self.passes > first and perf_counter() >= deadline:
                    self.passes += 1  # the cut pass keeps its index (and scratch)
                    return
                self._run_unit(unit)
            if traced:
                self._check_paths(Counter(self.tracer.paths) - paths_before)
                self.traced_passes += 1
                self.tracer.counts["obs.telemetry.bytes"] += self.workload.bytes_written()
            self.passes += 1
            if perf_counter() >= deadline:
                return

    def _check_paths(self, observed: Counter) -> None:
        """A traced pass's engine paths must match what its own run records
        and the first (untraced) pass's records report."""
        workload = self.workload
        recorded = workload.record_paths(self.passes)
        untraced = workload.record_paths(0)
        if recorded is None:
            return
        self.attempted += 1
        if not observed == recorded == untraced:
            self._fail(
                [
                    f"pass {self.passes}: traced engine paths {sorted(observed.items())} "
                    f"differ from the records' {sorted(recorded.items())} or the "
                    f"untraced pass's {sorted((untraced or Counter()).items())}"
                ]
            )

    def medians(self, traced: bool = False) -> dict[str, float]:
        """Every unit's median drift-corrected time."""
        return {
            name: refclock.median_corrected(samples)
            for name, samples in self.samples[traced].items()
        }

    def wall_s(self, traced: bool) -> float:
        """One pass: the sum of every unit's median drift-corrected time,
        each scaled to the unit's nominal work (see ``Workload.work_scale``)."""
        return sum(
            seconds * self.workload.work_scale(name)
            for name, seconds in self.medians(traced).items()
        )

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per traced pass, plus human lines with bases."""
        tracer = self.tracer
        factors = {uid: sample.factor for uid, sample in self.unit_samples.items()}
        passes = self.traced_passes
        self_times = tracer.self_times(factors, self.clock.ticks)
        counts = tracer.counts
        traced_pass_s = sum(self_times.values()) / passes
        metrics: dict[str, float] = {}
        for layer, name in tracing.TIME_METRICS.items():
            metrics[name] = self_times.get(layer, 0.0) / passes
        for layer, name in tracing.CALL_METRICS.items():
            metrics[name] = counts[f"calls:{layer}"] / passes
        for name in tracing.HOOK_COUNTS:
            metrics[name] = counts[name] / passes
        for name, numerator, layer in tracing.SHARE_METRICS:
            runs = counts[f"calls:{layer}"]
            metrics[name] = counts[numerator] / runs if runs else 0.0
        for name, runs in tracing.path_counts(tracer.paths).items():
            metrics[name] = runs / passes
        untraced = self.wall_s(False)
        metrics["tracing_overhead"] = self.wall_s(True) / untraced - 1.0
        lines = [
            f"traced passes: {passes}; traced pass {traced_pass_s:.4f} s "
            f"(spans cover all of it), untraced pass {untraced:.4f} s"
        ]
        for layer, name in tracing.TIME_METRICS.items():
            seconds = metrics[name]
            if not seconds:
                continue
            share = seconds / traced_pass_s
            calls = counts[f"calls:{layer}"] / passes
            lines.append(
                f"  {name:<28} {seconds:10.4f} s/pass  {share:6.1%} of {traced_pass_s:.4f} s"
                f"  ({calls:g} spans/pass)"
            )
        for name, numerator, layer in tracing.SHARE_METRICS:
            runs = counts[f"calls:{layer}"]
            if runs:
                lines.append(f"  {name:<28} {metrics[name]:.3f} ({counts[numerator]}/{runs} runs)")
        for (backend, fast_path, reason), runs in sorted(
            tracer.paths.items(), key=lambda item: repr(item[0])
        ):
            lines.append(
                f"  path backend={backend} fast_path={fast_path} "
                f"fallback={reason!r}: {runs / passes:g} runs/pass"
            )
        return metrics, lines


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()  # the orchestrator's clock too (CLOCK_MONOTONIC)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = refclock.DriftClock()

    def import_workload() -> "workloads.Workload":
        # The benchmark's own modules load here, so every import is timed
        # at the host speed it ran at; only interpreter start-up is not.
        import workloads

        workload = workloads.WORKLOADS[args.workload](
            seed=args.seed, size=args.size, scratch=Path(args.scratch)
        )
        workload.import_modules()
        return workload

    workload, imported, error = clock.time(import_workload)
    if error is not None:
        raise error
    _, built, error = clock.time(workload.build_inputs)
    if error is not None:
        raise error
    print(
        json.dumps(
            {
                "started": started,
                "import": {"elapsed": imported.elapsed, "speed": imported.speed},
                "inputs": {"elapsed": built.elapsed, "speed": built.speed},
            }
        ),
        flush=True,
    )
    if args.setup_only:
        return 0

    run = Measurement(clock, workload)
    if args.trace:
        run.measure(args.seconds / 2, traced=False)
        run.tracer = tracing.Tracer()
        tracing.install(run.tracer)
        workload.tracer = run.tracer
        run.measure(args.seconds / 2, traced=True)
    else:
        run.measure(args.seconds, traced=False)

    from repro.obs.provenance import CODE_VERSION

    result: dict[str, Any] = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "passes": run.passes,
        "units": len(workload.units()),
        "wall_s": run.wall_s(False),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": run.clock.context(),
        "code_version": CODE_VERSION,
        "figures": workload.report(run.medians()),
    }
    if args.trace:
        result["per_layer"], result["layer_lines"] = run.per_layer()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(run.tracer.chrome_trace(f"perfbench {args.workload}"), handle)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
