"""Measurement harnesses for the baseline protocols.

Engine-driving counterparts of the protocol classes in
:mod:`repro.baselines.rendezvous`, :mod:`repro.baselines.deterministic`,
:mod:`repro.baselines.aggregation`, and :mod:`repro.baselines.hopping`.
As in :mod:`repro.core.runners`, the split is the model's information
asymmetry made structural: protocol modules hold only node-side code
(lint rule R4), while these harnesses own the world — networks, engines,
and global channel ids.

As in :mod:`repro.core.runners`, every runner takes optional
observability instruments (metrics registry, resource sampler,
telemetry sink) and runs through
:func:`repro.core.runners.run_protocol`, so baseline runs leave the
same ``kind="run"`` manifests as the core protocols.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.baselines.aggregation import (
    BaselineAggregationResult,
    RendezvousCollector,
    RendezvousReporter,
)
from repro.baselines.deterministic import StayAndScanBroadcast
from repro.baselines.hopping import HoppingTogether
from repro.baselines.rendezvous import RendezvousBroadcast
from repro.core.cogcast import BroadcastResult
from repro.core.runners import _broadcast_result, run_protocol
from repro.sim.backends import AllInformed
from repro.sim.channels import ChannelAssignment, Network
from repro.sim.collision import CollisionModel
from repro.sim.protocol import NodeView, Protocol
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.metrics import MetricsRegistry, ResourceSampler
    from repro.obs.telemetry import TelemetrySink
    from repro.sim.backends import StopCondition


def run_rendezvous_broadcast(
    network: Network,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    body: Any = None,
    collision: CollisionModel | None = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: str | None = None,
) -> BroadcastResult:
    """Run the baseline until every node has heard the source."""

    def factory(view: NodeView) -> RendezvousBroadcast:
        return RendezvousBroadcast(
            view, is_source=(view.node_id == source), body=body
        )

    protocols, result = run_protocol(
        network,
        factory,
        protocol="rendezvous-broadcast",
        seed=seed,
        max_slots=max_slots,
        stop=AllInformed,
        collision=collision,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    return _broadcast_result(result, protocols)


def run_stay_and_scan_broadcast(
    network: Network,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int | None = None,
    body: Any = None,
    collision: CollisionModel | None = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: str | None = None,
) -> BroadcastResult:
    """Run the deterministic broadcast to completion (<= c^2 slots)."""
    c = network.channels_per_node
    budget = max_slots if max_slots is not None else c * c

    def factory(view: NodeView) -> StayAndScanBroadcast:
        return StayAndScanBroadcast(
            view, is_source=(view.node_id == source), body=body
        )

    protocols, result = run_protocol(
        network,
        factory,
        protocol="stay-and-scan",
        seed=seed,
        max_slots=budget,
        stop=AllInformed,
        collision=collision,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    return _broadcast_result(result, protocols)


def run_rendezvous_aggregation(
    network: Network,
    values: Sequence[Any],
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    collision: CollisionModel | None = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: str | None = None,
) -> BaselineAggregationResult:
    """Run the baseline until the source holds every node's value."""
    n = network.num_nodes
    if len(values) != n:
        raise ValueError(f"{len(values)} values for {n} nodes")

    def factory(view: NodeView) -> Protocol:
        if view.node_id == source:
            return RendezvousCollector(view)
        return RendezvousReporter(view, values[view.node_id])

    def all_collected(protocols: list[Any]) -> StopCondition:
        collector = protocols[source]
        return lambda _: len(collector.collected) >= n - 1

    protocols, result = run_protocol(
        network,
        factory,
        protocol="rendezvous-aggregation",
        seed=seed,
        max_slots=max_slots,
        stop=all_collected,
        collision=collision,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    return BaselineAggregationResult(
        slots=result.slots,
        completed=result.completed,
        collected=dict(protocols[source].collected),
    )


def run_hopping_together(
    assignment: ChannelAssignment,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    body: Any = None,
    collision: CollisionModel | None = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: str | None = None,
) -> BroadcastResult:
    """Run the lockstep scan until every node is informed.

    Takes the :class:`ChannelAssignment` directly (not a network)
    because the protocol legitimately needs each node's global channel
    ids; the scan period is ``max(universe) + 1``, matching the dense
    global numbering the generators produce.
    """
    universe_size = max(assignment.universe) + 1

    def factory(view: NodeView) -> HoppingTogether:
        return HoppingTogether(
            view,
            assignment.channels[view.node_id],
            universe_size,
            is_source=(view.node_id == source),
            body=body,
        )

    protocols, result = run_protocol(
        Network.static(assignment),
        factory,
        protocol="hopping-together",
        seed=seed,
        max_slots=max_slots,
        stop=AllInformed,
        collision=collision,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    return _broadcast_result(result, protocols)
