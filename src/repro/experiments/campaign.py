"""Campaigns: structured multi-seed measurement runs.

The per-experiment modules each hand-roll a "sweep a parameter, run N
seeded trials per point, summarize" loop.  A :class:`Campaign` packages
that pattern for users building *their own* studies on top of the
library: declare a parameter grid and a measurement function, get back
per-point summaries with confidence intervals, and render the whole
thing as a :class:`~repro.experiments.harness.Table`.

Example::

    campaign = Campaign(
        name="my-sweep",
        measure=lambda point, seed: measure_cogcast_slots(
            point["n"], point["c"], point["k"], seed
        ),
    )
    grid = [{"n": n, "c": 16, "k": 4} for n in (32, 64, 128)]
    results = campaign.run(grid, trials=20, seed=0)
    print(campaign.table(results).render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.stats import Summary, mean_confidence_interval, summarize
from repro.experiments.harness import Table
from repro.sim.rng import derive_seed


MeasureFn = Callable[[Mapping[str, Any], int], float]


def _timed_measure(
    measure: MeasureFn, point: Mapping[str, Any], seed: int
) -> tuple[float, float]:
    """One trial plus its ``perf_counter`` duration (runs in the worker).

    Module-level (not a closure) so a :func:`functools.partial` over it
    pickles whenever *measure* does; the duration is reporting only
    (lint rule R2 allows ``perf_counter``), the sample stays a pure
    function of ``(point, seed)``.
    """
    from time import perf_counter

    start = perf_counter()
    value = float(measure(point, seed))
    return value, perf_counter() - start


@dataclass(frozen=True)
class PointResult:
    """Measurements at one grid point."""

    point: Mapping[str, Any]
    samples: tuple[float, ...]
    summary: Summary
    ci_low: float
    ci_high: float


@dataclass
class Campaign:
    """A named, reproducible measurement campaign.

    Attributes
    ----------
    name:
        Used in seed derivation — two campaigns with different names
        draw independent trial streams even at the same root seed.
    measure:
        ``measure(point, seed) -> float``; must be deterministic in its
        arguments.
    """

    name: str
    measure: MeasureFn

    def run(
        self,
        grid: Sequence[Mapping[str, Any]],
        *,
        trials: int,
        seed: int = 0,
        telemetry: Any = None,
        jobs: int | None = 1,
        metrics: Any = None,
        backend: str | None = None,
    ) -> list[PointResult]:
        """Measure every grid point with *trials* independent seeds.

        When *telemetry* (any object with ``emit(record)``, typically a
        :class:`repro.obs.telemetry.TelemetrySink`) is given, one
        ``kind="campaign"`` manifest is emitted per grid point as it
        completes, with the point, its trial count, the sample mean, and
        the point's ``perf_counter`` wall time.

        Watchdogs belong to the runs, not the campaign: a measure
        function that hands a runner ``watchdogs=`` and a sink gets
        each run's anomalies written right after that run's record,
        under the trial's seed.

        *jobs* fans the flattened ``(point, trial)`` work list across a
        process pool via :func:`repro.perf.pmap_trials`; every trial's
        seed is derived up front and results are reassembled in
        submission order, so the returned tables and confidence
        intervals are byte-identical to a serial run.  ``jobs=None``
        defers to the process default (the CLI's ``--jobs``); the
        measure function must be picklable (module-level, not a
        lambda) to actually parallelize — otherwise the run quietly
        stays in-process.  A point's ``elapsed_s`` is the sum of its
        trials' individual measure times (timed inside the worker), so
        serial and parallel runs report comparable per-point costs.

        *metrics* is an optional
        :class:`repro.obs.metrics.MetricsRegistry` maintained in the
        parent process (workers return plain samples, so parallel runs
        feed the same instruments in the same order as serial runs):
        per-campaign trial/point counters, the trial-value distribution
        (protocol category — deterministic in ``(grid, seed)``), and a
        timing-category per-point elapsed histogram.  Each
        ``kind="campaign"`` record embeds the registry snapshot as of
        that point, so shards merged by
        :func:`repro.perf.merge_telemetry` stay individually
        attributable.

        *backend* names the engine backend (``"exact"``, ``"vector"``,
        ...) the measure function's runs should use; it is installed as
        the process default for the duration of the grid (restored
        after), and :func:`repro.perf.pmap_trials` snapshots it into
        pool workers, so measure functions pick it up without a
        parameter of their own.  ``None`` leaves the current default in
        place.  The resolved backend name is recorded in each point's
        provenance block, so points measured under different backends
        hash to different store keys.
        """
        if trials < 1:
            raise ValueError("trials must be positive")
        if telemetry is not None:
            from repro.obs.telemetry import campaign_record
        from functools import partial

        from repro.perf import pmap_trials

        from repro.sim.backends import backend_scope, default_backend_name

        backend_name = backend if backend is not None else default_backend_name()
        tasks = [
            (dict(point), derive_seed(seed, "campaign", self.name, index, trial))
            for index, point in enumerate(grid)
            for trial in range(trials)
        ]
        with backend_scope(backend):
            flat = pmap_trials(
                partial(_timed_measure, self.measure), tasks, jobs=jobs
            )
        if metrics is not None:
            point_counter = metrics.counter(
                "campaign_points", "grid points measured", labels=("campaign",)
            )
            trial_counter = metrics.counter(
                "campaign_trials", "trials measured", labels=("campaign",)
            )
            value_histogram = metrics.histogram(
                "campaign_trial_value",
                "trial measurement values",
                labels=("campaign",),
            )
            elapsed_histogram = metrics.histogram(
                "campaign_point_elapsed_s",
                "per-point wall time",
                labels=("campaign",),
                category="timing",
                width=0.25,
            )
        results: list[PointResult] = []
        for index, point in enumerate(grid):
            point_trials = flat[index * trials : (index + 1) * trials]
            samples = tuple(value for value, _ in point_trials)
            elapsed = sum(trial_elapsed for _, trial_elapsed in point_trials)
            _, low, high = mean_confidence_interval(list(samples))
            summary = summarize(samples)
            if metrics is not None:
                point_counter.inc(campaign=self.name)
                trial_counter.inc(trials, campaign=self.name)
                for sample in samples:
                    value_histogram.observe(sample, campaign=self.name)
                elapsed_histogram.observe(elapsed, campaign=self.name)
            if telemetry is not None:
                telemetry.emit(
                    campaign_record(
                        name=self.name,
                        seed=seed,
                        point=point,
                        trials=trials,
                        mean=summary.mean,
                        elapsed_s=elapsed,
                        metrics=metrics,
                        backend=backend_name,
                    )
                )
            results.append(
                PointResult(
                    point=dict(point),
                    samples=samples,
                    summary=summary,
                    ci_low=low,
                    ci_high=high,
                )
            )
        return results

    def table(
        self,
        results: Sequence[PointResult],
        *,
        title: str | None = None,
        claim: str = "",
    ) -> Table:
        """Render campaign results as a harness table.

        Columns are the union of grid-point keys (in first-seen order)
        plus the summary statistics.
        """
        if not results:
            raise ValueError("no results to tabulate")
        keys: list[str] = []
        for result in results:
            for key in result.point:
                if key not in keys:
                    keys.append(key)
        columns = tuple(keys) + ("mean", "ci95 low", "ci95 high", "p50", "max")
        rows = []
        for result in results:
            rows.append(
                tuple(result.point.get(key, "") for key in keys)
                + (
                    round(result.summary.mean, 2),
                    round(result.ci_low, 2),
                    round(result.ci_high, 2),
                    round(result.summary.p50, 2),
                    round(result.summary.maximum, 2),
                )
            )
        return Table(
            experiment_id=self.name,
            title=title or self.name,
            claim=claim,
            columns=columns,
            rows=tuple(rows),
        )
