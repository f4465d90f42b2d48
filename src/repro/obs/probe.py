"""The probe API: the run-level hooks every engine kernel fires.

A probe sees only the run.  Every kernel — the engine's general and
fast kernels and the vector backend's columnar kernel — fires exactly
three hooks, through one run start and one run end:

- ``on_run_start`` with the network's ``(n, c, k)``;
- ``on_run_totals`` once, with the quantities the run's channel events
  add up to;
- ``on_run_end`` with the number of slots executed.

So attaching a probe never costs a kernel.  What happens on each
channel in each slot reaches analysis through the engine's one
per-event output instead, its ``trace``: an *event sink* such as an
:class:`~repro.sim.trace.EventTrace`, a
:class:`~repro.obs.spans.SpanProbe` or the mediator-uniqueness
watchdog (:mod:`repro.obs.watchdog`).

:class:`~repro.obs.metrics.MetricsProbe` is the probe :mod:`repro.obs`
ships.  All hooks are no-ops on :class:`SlotProbe`; subclass and
override what you need.

Probes are *observers*, never *actors*: they see engine-side ground
truth (physical channels, global node ids) and therefore live strictly
on the analysis side of the information barrier.  Protocol modules must
not import them (lint rule R4).
"""

from __future__ import annotations

from typing import Sequence


class SlotProbe:
    """Base probe: the three run hooks, all no-ops.

    Within a run the engine fires ``on_run_start``, then
    ``on_run_totals`` once, then ``on_run_end``, whichever kernel ran.
    """

    def on_run_start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """A run is starting on a network with the given ``(n, c, k)``."""

    def on_run_totals(
        self,
        *,
        slots: int,
        contention: Sequence[int],
        deliveries: int,
        wasted_listens: int,
    ) -> None:
        """The run's totals, fired once just before :meth:`on_run_end`.

        *contention* holds the contender count of every channel-slot
        with at least one broadcaster, in (slot, ascending channel)
        order; jammed broadcasters contend.  *deliveries* counts
        listeners that heard a winner; *wasted_listens* counts listeners
        that heard nothing, jammed listeners included.  These are the
        sums of the run's :class:`~repro.sim.trace.ChannelEvent` stream,
        as :func:`repro.sim.metrics.compute_metrics` folds it.
        """

    def on_run_end(self, slots: int) -> None:
        """The run finished after executing *slots* slots."""
