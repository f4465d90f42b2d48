"""Constant-memory streaming aggregators.

The building blocks of the metrics histograms and span statistics: an
online min/max/mean/variance accumulator (Welford's algorithm,
numerically stable over million-slot runs) and a fixed-bucket histogram
whose memory never depends on how many samples it absorbs.  Both are
plain value types — no engine coupling — so they are equally usable for
ad-hoc analysis scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StreamingStat:
    """Online count / min / max / mean / variance over a stream of numbers.

    Uses Welford's update so the mean and variance stay accurate without
    retaining samples.  ``variance`` is the population variance; an
    empty stat reports ``mean``/``variance`` of ``0.0`` and ``min``/
    ``max`` of ``None``.
    """

    count: int = 0
    minimum: float | None = None
    maximum: float | None = None
    _mean: float = 0.0
    _m2: float = 0.0

    def push(self, value: float) -> None:
        """Absorb one sample."""
        value = float(value)
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        """The running mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """The running population variance (0.0 when empty)."""
        return self._m2 / self.count if self.count else 0.0

    def merge(self, other: "StreamingStat") -> None:
        """Fold *other*'s samples into this stat (parallel-run merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.minimum = other.minimum
            self.maximum = other.maximum
            self._mean = other._mean
            self._m2 = other._m2
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        # Both sides are non-empty here, so both have extremes.
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def as_dict(self) -> dict[str, float | int | None]:
        """JSON-ready summary of the stream."""
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": round(self.mean, 6),
            "variance": round(self.variance, 6),
        }


@dataclass
class FixedHistogram:
    """A histogram with a fixed number of equal-width buckets plus overflow.

    Bucket ``i`` covers ``[i * width, (i + 1) * width)``; samples at or
    beyond ``buckets * width`` land in the overflow bucket.  Memory is
    ``buckets + 1`` integers regardless of sample count, which is the
    point: per-slot contention and delivery-latency distributions stay
    recordable over arbitrarily long runs.
    """

    width: float = 1.0
    buckets: int = 16
    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("bucket width must be positive")
        if self.buckets < 1:
            raise ValueError("need at least one bucket")
        if not self.counts:
            self.counts = [0] * (self.buckets + 1)
        elif len(self.counts) != self.buckets + 1:
            raise ValueError(
                f"{len(self.counts)} counts for {self.buckets} buckets + overflow"
            )

    def push(self, value: float) -> None:
        """Absorb one (non-negative) sample."""
        if value < 0:
            raise ValueError(f"histogram samples must be non-negative, got {value}")
        index = int(value // self.width)
        self.counts[index if index < self.buckets else self.buckets] += 1

    @property
    def total(self) -> int:
        """Total samples absorbed."""
        return sum(self.counts)

    @property
    def overflow(self) -> int:
        """Samples at or beyond the last bucket edge."""
        return self.counts[self.buckets]

    def bucket_edges(self, index: int) -> tuple[float, float]:
        """The ``[low, high)`` range of bucket *index*."""
        if not 0 <= index < self.buckets:
            raise IndexError(f"bucket {index} outside 0..{self.buckets - 1}")
        return (index * self.width, (index + 1) * self.width)

    def quantile(self, q: float) -> float:
        """Approximate the *q*-quantile (upper edge of the covering bucket).

        Overflow samples resolve to the overflow edge; an empty
        histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        total = self.total
        if total == 0:
            return 0.0
        target = q * total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= target:
                return min(index + 1, self.buckets) * self.width
        return self.buckets * self.width  # pragma: no cover - q <= 1 covers all

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form: width, per-bucket counts, overflow count."""
        return {
            "width": self.width,
            "counts": list(self.counts[: self.buckets]),
            "overflow": self.overflow,
        }

    def render(self, *, max_width: int = 40) -> str:
        """A small ASCII rendering, one populated bucket per line."""
        peak = max(self.counts) if any(self.counts) else 0
        if peak == 0:
            return "(empty histogram)"
        lines = []
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if index < self.buckets:
                low, high = self.bucket_edges(index)
                label = f"[{low:g}, {high:g})"
            else:
                label = f"[{self.buckets * self.width:g}, inf)"
            bar = "#" * max(1, round(count / peak * max_width))
            lines.append(f"{label:>16}  {count:>8}  {bar}")
        return "\n".join(lines)
