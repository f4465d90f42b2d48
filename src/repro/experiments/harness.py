"""Experiment infrastructure: tables, trial loops, and the spec type.

Every experiment in :mod:`repro.experiments` produces a :class:`Table` —
the reproduction's equivalent of one of the paper's claims rendered as
rows of measurements next to the theoretical prediction.  The
benchmarks, the CLI, and EXPERIMENTS.md all consume the same tables, so
the numbers a user sees are generated by exactly one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class Table:
    """One experiment's output: a claim and the measurements behind it.

    Attributes
    ----------
    experiment_id: e.g. ``"E01"``.
    title: short human title.
    claim: the paper statement being reproduced (with its location).
    columns: column headers.
    rows: row tuples, one value per column.
    notes: free-form caveats / interpretation help.
    """

    experiment_id: str
    title: str
    claim: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    notes: str = ""

    def column(self, name: str) -> list[Any]:
        """All values of the named column, in row order."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Render as an aligned, monospace table."""
        header = [self.experiment_id + " — " + self.title, "claim: " + self.claim]
        cells = [tuple(_fmt(value) for value in row) for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = []
        lines.append(
            "  ".join(name.ljust(width) for name, width in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append(
                "  ".join(value.rjust(width) for value, width in zip(row, widths))
            )
        body = "\n".join(lines)
        note = f"\nnote: {self.notes}" if self.notes else ""
        return "\n".join(header) + "\n" + body + note + "\n"


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: metadata plus its runner.

    ``run(trials, seed, fast)`` must be deterministic in its arguments.
    ``fast=True`` shrinks sweep sizes/trials for CI and benchmarks;
    published numbers use ``fast=False``.
    """

    experiment_id: str
    title: str
    claim: str
    run: Callable[..., Table]


def run_with_telemetry(
    spec: ExperimentSpec,
    sink: Any,
    *,
    trials: int | None = None,
    seed: int = 0,
    fast: bool = False,
    spans: Any = None,
    metrics: Any = None,
    resources: Any = None,
) -> Table:
    """Run one experiment, emitting a ``kind="experiment"`` manifest.

    Wraps ``spec.run`` with a ``perf_counter`` stopwatch and writes one
    record (experiment id, seed, trials, fast flag, elapsed seconds, row
    count) to *sink* — any object with an ``emit(record)`` method,
    typically a :class:`repro.obs.telemetry.TelemetrySink`.  The wall
    time is reporting only (lint rule R2 allows ``perf_counter``); the
    table itself stays deterministic in ``(trials, seed, fast)``.
    ``trials=None`` defers to the experiment's own default trial count.

    The optional instruments ride along on the manifest: *spans*
    (anything with ``summary()``, e.g.
    :class:`repro.obs.spans.SpanProbe`) becomes the record's ``spans``,
    *metrics* (a :class:`repro.obs.metrics.MetricsRegistry`
    or snapshot dict) embeds as the record's validated ``metrics``
    field, and *resources* (a started
    :class:`repro.obs.metrics.ResourceSampler`, as on the runners)
    embeds its delta as ``resources``.  Watchdog anomalies come from
    the runs: a runner given ``watchdogs=`` and *sink* writes each
    run's anomalies right after that run's record.
    """
    from time import perf_counter

    from repro.obs.telemetry import experiment_record

    kwargs: dict[str, Any] = {"seed": seed, "fast": fast}
    if trials is not None:
        kwargs["trials"] = trials
    start = perf_counter()
    table = spec.run(**kwargs)
    elapsed = perf_counter() - start
    sink.emit(
        experiment_record(
            experiment_id=spec.experiment_id,
            seed=seed,
            trials=trials,
            fast=fast,
            elapsed_s=elapsed,
            rows=len(table.rows),
            spans=spans,
            metrics=metrics,
            resources=None if resources is None else resources.delta(),
        )
    )
    return table


def trial_seeds(root_seed: int, experiment_id: str, count: int) -> list[int]:
    """Independent per-trial seeds for one experiment."""
    return [
        derive_seed(root_seed, "experiment", experiment_id, trial)
        for trial in range(count)
    ]


def map_trials(
    measure: Callable[[int], Any],
    seeds: Sequence[int],
    *,
    jobs: int | None = None,
) -> list[Any]:
    """Run ``measure(seed)`` for every seed, in order, possibly in parallel.

    The workhorse of experiment trial loops: results are identical to
    ``[measure(seed) for seed in seeds]`` regardless of the worker
    count, because each trial's randomness is fully determined by its
    seed and :func:`repro.perf.pmap_trials` reassembles results in
    submission order.  ``jobs=None`` defers to the process default set
    by ``python -m repro run --jobs N`` (serial unless raised), so
    experiments need no ``jobs`` parameter of their own.  *measure*
    must be picklable to actually fan out — module-level functions and
    :func:`functools.partial` over them are; lambdas fall back to the
    in-process loop.
    """
    from repro.perf import pmap_trials

    return pmap_trials(measure, [(seed,) for seed in seeds], jobs=jobs)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (local import-free convenience)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("empty sample")
    return sum(values) / len(values)
