"""Drift-corrected timing against a fixed pure-Python reference loop.

The host's speed drifts by up to 2x, in bursts from a few milliseconds
to seconds, and CPU time tracks wall time, so neither clock alone
separates a slow change from a slow host period.  A timed call is
therefore accompanied by samples of a short fixed reference loop: one
just before the call, one just after, and one every :data:`TICK_S`
during it (an interval timer interrupts the call, so a long unit is
corrected by the host speed it actually ran at, not only by its ends).
The call's duration, less the time spent sampling, divided by the mean
sample is its cost in reference loops, which is turned back into
seconds at a fixed nominal sample time::

    corrected = (elapsed - sampling) * NOMINAL_SAMPLE_S / mean(samples)

The nominal time is a constant rather than the run's fastest sample:
the fastest of a run's ~3000 samples moved by up to 12% between seeds
of one workload (it depends on where the process's memory landed),
which would move every corrected time with it.  Each run still reports
its fastest and median sample as context.

The loop is pure Python, like the simulator's hot paths: lookups in a
32k-key dict, tuple allocation and list appends.  A loop over a small
cache-resident dict was tried first and under-corrected: when the host
slowed it by a factor s, the scale workload's units slowed by s**a with
a between 1.1 and 1.8, so runs in a slow period read slow.  Against
this loop a fell between 0.7 and 1.4.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Sequence

#: Iterations of one reference sample (about 0.3 ms on a 2020s x86 core).
REFERENCE_ITERATIONS = 500

#: Interval between reference samples taken during a timed call.
TICK_S = 0.01

#: Seconds one reference sample is taken to last at the nominal host
#: speed (about the fast state of a 2020s Xeon vCPU).
NOMINAL_SAMPLE_S = 1.5e-4


class ReferenceLoop:
    """The fixed workload whose duration tracks the host's current speed."""

    def __init__(self, keys: int = 1 << 15) -> None:
        self.table = {key * 7919: key for key in range(keys)}
        self.mask = keys - 1

    def run(self, iterations: int = REFERENCE_ITERATIONS) -> int:
        """One pass of the loop; returns a value so nothing is optimized away."""
        table = self.table
        mask = self.mask
        acc = 0
        pending: list[tuple[int, int]] = []
        for i in range(iterations):
            key = ((acc * 2654435761 + i) & mask) * 7919
            acc = (table.get(key, 0) + acc) & 0xFFFF
            pending.append((acc, i))
            if len(pending) > 64:
                pending.clear()
        return acc

    def sample(self) -> float:
        """Seconds one :meth:`run` takes right now."""
        start = perf_counter()
        self.run()
        return perf_counter() - start


@dataclass(frozen=True)
class Sample:
    """One timed call: its own duration and the host speed it ran at."""

    #: Wall seconds of the call, less the reference sampling inside it.
    elapsed: float
    #: Mean reference sample before, during and after the call.
    speed: float

    @property
    def factor(self) -> float:
        """Scale from this call's seconds to seconds at the nominal host speed."""
        return NOMINAL_SAMPLE_S / self.speed

    @property
    def corrected(self) -> float:
        """The call's duration in seconds at the nominal host speed."""
        return self.elapsed * self.factor


class DriftClock:
    """Times calls while sampling the reference loop, and keeps every sample."""

    def __init__(self) -> None:
        self.loop = ReferenceLoop()
        self.references: list[float] = []
        #: ``(start, end)`` of every sample taken during a call, in order:
        #: benchmark work that traced self times leave out.
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum: int, frame: Any) -> None:
        start = perf_counter()
        self.loop.run()
        self.ticks.append((start, perf_counter()))

    def time(self, call: Callable[[], Any]) -> tuple[Any, Sample, Exception | None]:
        """Run *call* while sampling the reference loop.

        Returns ``(result, sample, error)``.  An exception raised by the
        call is returned rather than raised, so one failed operation
        counts as a failure and the run goes on measuring.  Uses
        ``SIGALRM``, so call it from the main thread only.
        """
        before = self.loop.sample()
        first_tick = len(self.ticks)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        result: Any = None
        error: Exception | None = None
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # the caller records it as a failed operation
            error = exc
        finally:
            # Stop ticking first, so every tick falls inside `elapsed`.
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        after = self.loop.sample()
        during = [end - begin for begin, end in self.ticks[first_tick:]]
        samples = [before, *during, after]
        self.references.extend(samples)
        own = elapsed - sum(during)
        return result, Sample(own, sum(samples) / len(samples)), error

    def context(self) -> dict[str, float]:
        """Fastest and median reference sample, for the run's context line."""
        return {
            "fastest_s": min(self.references),
            "median_s": statistics.median(self.references),
            "samples": len(self.references),
        }


def median_corrected(samples: Sequence[Sample]) -> float:
    """Median drift-corrected duration of repeated calls of one unit."""
    return statistics.median(sample.corrected for sample in samples)
