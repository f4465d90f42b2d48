"""The probe API: hook objects the engine fires as a run unfolds.

A probe is the streaming counterpart of an
:class:`~repro.sim.trace.EventTrace`: instead of *retaining* events it
*observes* them as they happen, so long runs can be instrumented in
constant memory.  Two granularities exist:

- :class:`SlotProbe` — slot- and channel-level hooks: run start/end,
  slot begin, and one call per :class:`~repro.sim.trace.ChannelEvent`.
- :class:`ProtocolProbe` — adds the per-node hook: every action a node
  takes.

The hook set is exactly what the instruments in :mod:`repro.obs`
consume: :class:`~repro.obs.metrics.MetricsProbe` (the one streaming
counter), :class:`~repro.obs.spans.SpanProbe` and the watchdogs.  All
hooks are no-ops on the base classes; subclass and override what you
need.  The engine checks ``probe is None`` before every hook, so an
un-probed run pays nothing beyond that check, and it consults
:attr:`SlotProbe.observes_nodes` once at attach time so slot-level
probes never pay the per-node dispatch.

One more hook lives outside the base classes: a probe whose class
defines ``on_run_totals`` (:class:`~repro.obs.metrics.MetricsProbe`
does; see :func:`repro.sim.engine.takes_run_totals`) can be fed a whole
run's totals in one call, so attaching it alone leaves the engine's
fast kernel and the vector backend's columnar kernel engaged.  Those
kernels fire ``on_run_start``, ``on_run_totals`` and ``on_run_end``
and nothing else.  :class:`MultiProbe` does not define the hook, so a
composed probe always runs on the general kernel.

Probes are *observers*, never *actors*: they see engine-side ground
truth (physical channels, global node ids) and therefore live strictly
on the analysis side of the information barrier.  Protocol modules must
not import them (lint rule R4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.actions import Action
    from repro.sim.trace import ChannelEvent
    from repro.types import NodeId, Slot


class SlotProbe:
    """Base probe: slot- and channel-granularity hooks, all no-ops.

    Subclass and override the hooks you need; unoverridden hooks cost
    one no-op call.  The general kernel guarantees hook order within a
    run: ``on_run_start``, then per slot ``on_slot_begin`` and zero or
    more ``on_channel_event`` (in ascending channel order), and finally
    ``on_run_end``.  Slots arrive in strictly increasing order.
    """

    #: Whether the engine should also fire the per-node hook
    #: (:meth:`ProtocolProbe.on_action`).  Checked once at attach time,
    #: not per slot.
    observes_nodes = False

    def on_run_start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """A run is starting on a network with the given ``(n, c, k)``."""

    def on_slot_begin(self, slot: "Slot") -> None:
        """Slot *slot* is about to execute."""

    def on_channel_event(self, event: "ChannelEvent") -> None:
        """One physical channel's fully-resolved activity this slot.

        The *event* is identical to what an attached
        :class:`~repro.sim.trace.EventTrace` would record, which is how
        streaming counters can reproduce trace metrics exactly.
        """

    def on_run_end(self, slots: int) -> None:
        """The run finished after executing *slots* slots."""


class ProtocolProbe(SlotProbe):
    """A probe that additionally observes every node's actions.

    Use for per-node accounting that slot-level hooks cannot
    reconstruct (e.g. :class:`~repro.obs.spans.SpanProbe`'s per-node
    activity extents).  Costs one call per live node per slot, so
    prefer :class:`SlotProbe` when channel events suffice.
    """

    observes_nodes = True

    def on_action(self, slot: "Slot", node: "NodeId", action: "Action") -> None:
        """*node* chose *action* for *slot*."""


class MultiProbe(ProtocolProbe):
    """Fan one stream of hooks out to several probes.

    The per-node hook is forwarded only to children that observe nodes;
    :attr:`observes_nodes` is the OR over children so a set of pure
    slot-probes still skips the per-node dispatch entirely.
    """

    def __init__(self, probes: Iterable[SlotProbe]) -> None:
        self.probes: tuple[SlotProbe, ...] = tuple(probes)
        self._node_probes = tuple(
            probe for probe in self.probes if probe.observes_nodes
        )
        self.observes_nodes = bool(self._node_probes)

    def on_run_start(self, *, num_nodes: int, num_channels: int, overlap: int) -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_run_start(
                num_nodes=num_nodes, num_channels=num_channels, overlap=overlap
            )

    def on_slot_begin(self, slot: "Slot") -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_slot_begin(slot)

    def on_channel_event(self, event: "ChannelEvent") -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_channel_event(event)

    def on_run_end(self, slots: int) -> None:
        """Forward to every child probe."""
        for probe in self.probes:
            probe.on_run_end(slots)

    def on_action(self, slot: "Slot", node: "NodeId", action: "Action") -> None:
        """Forward to the node-observing children only."""
        for probe in self._node_probes:
            probe.on_action(slot, node, action)  # type: ignore[attr-defined]
