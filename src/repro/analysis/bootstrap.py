"""Bootstrap resampling for head-to-head comparisons.

Experiment rows often compare two sample means (COGCAST vs a baseline).
A normal-approximation CI on each mean is fine for the means
themselves, but a CI on their *ratio* — the speedup the paper's claims
are about — is cleaner via the bootstrap.  Dependency-free, seeded, and
small-sample-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.rng import derive_rng


@dataclass(frozen=True, slots=True)
class BootstrapCI:
    """A percentile bootstrap confidence interval."""

    estimate: float
    low: float
    high: float
    resamples: int

    def contains(self, value: float) -> bool:
        """Whether *value* lies inside the interval."""
        return self.low <= value <= self.high


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[Sequence[float]], float],
    *,
    resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for an arbitrary statistic of one sample."""
    if not samples:
        raise ValueError("empty sample")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = derive_rng(seed, "bootstrap")
    n = len(samples)
    estimates = sorted(
        statistic([samples[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    low_index = max(0, int(alpha * resamples))
    high_index = min(resamples - 1, int((1.0 - alpha) * resamples))
    return BootstrapCI(
        estimate=statistic(samples),
        low=estimates[low_index],
        high=estimates[high_index],
        resamples=resamples,
    )


def speedup_ci(
    baseline: Sequence[float],
    treatment: Sequence[float],
    *,
    resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapCI:
    """Bootstrap CI on ``mean(baseline) / mean(treatment)``.

    The two samples are resampled independently (independent trials).
    A CI entirely above 1.0 is a statistically solid "treatment wins".
    """
    if not baseline or not treatment:
        raise ValueError("empty sample")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = derive_rng(seed, "speedup-bootstrap")

    def resample(samples: Sequence[float]) -> float:
        n = len(samples)
        return sum(samples[rng.randrange(n)] for _ in range(n)) / n

    estimates = sorted(
        resample(baseline) / max(1e-12, resample(treatment))
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    low_index = max(0, int(alpha * resamples))
    high_index = min(resamples - 1, int((1.0 - alpha) * resamples))
    point = (sum(baseline) / len(baseline)) / (sum(treatment) / len(treatment))
    return BootstrapCI(
        estimate=point,
        low=estimates[low_index],
        high=estimates[high_index],
        resamples=resamples,
    )
