"""Measurement harnesses for the core protocols.

Each ``run_*`` function builds an engine, drives one protocol to
completion, and folds the per-node protocol state into a result record.
They live here — not next to the protocol classes — because of the
model's information asymmetry: a *node* sees only its
:class:`~repro.sim.protocol.NodeView`, while the *harness* legitimately
owns the world (the :class:`~repro.sim.channels.Network`, the engine,
the trace).  The ``repro-lint`` rule R4 enforces the split: modules
defining :class:`~repro.sim.protocol.Protocol` subclasses must never
import the engine or the channel world-model.

Every runner optionally takes observability instruments from
:mod:`repro.obs`: a *probe* handed to the engine, a *spans* probe
(:class:`repro.obs.spans.SpanProbe`) for causal tracing, *watchdogs*
(:class:`repro.obs.watchdog.WatchdogProbe`) that check the paper's
invariants live, and a *telemetry* sink that receives one
``kind="run"`` manifest per call — emitted even when
``require_completion`` raises, so failed runs leave a record.  Watchdog
anomalies flow into the same sink as ``kind="anomaly"`` records.

Every runner — these and the baselines' in
:mod:`repro.baselines.runners` — goes through :func:`run_protocol`,
which builds, times and records the run; a runner supplies a node
factory, a stop condition and, when its protocol can fail, an outcome
function.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.aggregation import Aggregator, CollectAggregator
from repro.core.cogcast import BroadcastResult, CogCast
from repro.core.cogcomp import AggregationResult, CogComp
from repro.core.gossip import GossipCast, GossipResult
from repro.obs.metrics import MetricsProbe
from repro.obs.probe import MultiProbe
from repro.obs.telemetry import run_record
from repro.obs.watchdog import flush_anomalies
from repro.sim.adversary import Jammer
from repro.sim.backends import AllInformed, resolve_backend
from repro.sim.channels import Network
from repro.sim.collision import CollisionModel
from repro.sim.engine import RunResult, build_engine
from repro.sim.protocol import NodeView, Protocol
from repro.sim.trace import EventTrace
from repro.types import NodeId, SimulationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.metrics import MetricsRegistry, ResourceSampler
    from repro.obs.probe import SlotProbe
    from repro.obs.spans import SpanProbe
    from repro.obs.telemetry import TelemetrySink
    from repro.obs.watchdog import WatchdogProbe
    from repro.sim.backends import EngineBackend, StopCondition


def _broadcast_result(result: RunResult, protocols: Sequence[Any]) -> BroadcastResult:
    """Fold per-node informed state into a :class:`BroadcastResult`."""
    return BroadcastResult(
        slots=result.slots,
        completed=result.completed,
        informed_count=sum(protocol.informed for protocol in protocols),
        parents=tuple(protocol.parent for protocol in protocols),
        informed_slots=tuple(protocol.informed_slot for protocol in protocols),
    )


def _budget_outcome(protocols: list[Any], result: RunResult) -> str:
    """The run outcome of a protocol that cannot fail: stopped or out of slots."""
    return "completed" if result.completed else "budget"


def run_protocol(
    network: Network,
    factory: Callable[[NodeView], Protocol],
    *,
    protocol: str,
    seed: int,
    max_slots: int,
    stop: "Callable[[list[Any]], StopCondition]",
    outcome: Callable[[list[Any], RunResult], str] = _budget_outcome,
    collision: CollisionModel | None = None,
    trace: EventTrace | None = None,
    jammer: Jammer | None = None,
    probe: "SlotProbe | None" = None,
    spans: "SpanProbe | None" = None,
    watchdogs: "Sequence[WatchdogProbe]" = (),
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> tuple[list[Any], RunResult]:
    """Build, run and record one protocol run: the path every runner shares.

    Builds the engine from *factory*, composes *probe*, *spans*, each
    watchdog and (given *metrics*) a :class:`MetricsProbe` into one
    probe, and times :meth:`Engine.run` under ``stop(protocols)`` with
    ``perf_counter``, which leaves the fast kernel engaged.  A lone
    :class:`MetricsProbe` takes run totals, so a run given only
    *metrics* keeps the fast (or columnar) kernel too.  Broadcast
    runners pass :class:`AllInformed` itself as *stop*: the columnar
    kernel recognises it, and a closure around it would run exact.
    Given *telemetry*, emits the run record (``outcome(protocols,
    result)`` as its outcome), then this run's watchdog anomalies.
    Returns the protocols and the :class:`RunResult`; the caller checks
    completion, so a run that misses its budget still leaves a record.
    """
    instruments = [
        instrument
        for instrument in (
            probe,
            spans,
            *watchdogs,
            None if metrics is None else MetricsProbe(metrics, protocol=protocol),
        )
        if instrument is not None
    ]
    if len(instruments) > 1:
        instruments = [MultiProbe(instruments)]
    engine = build_engine(
        network,
        factory,
        seed=seed,
        collision=collision,
        trace=trace,
        jammer=jammer,
        probe=instruments[0] if instruments else None,
        backend=backend,
    )
    protocols: list[Any] = engine.protocols
    run_start = perf_counter()
    result = engine.run(max_slots, stop_when=stop(protocols))
    elapsed_s = perf_counter() - run_start
    if telemetry is not None:
        telemetry.emit(
            run_record(
                protocol=protocol,
                seed=seed,
                network=network,
                slots=result.slots,
                outcome=outcome(protocols, result),
                spans=spans,
                metrics=metrics,
                resources=None if resources is None else resources.delta(),
                elapsed_s=elapsed_s,
                fast_path=engine.fast_path_engaged,
                backend=resolve_backend(backend).name,
                vector_fallback_reason=getattr(engine, "vector_fallback_reason", None),
            )
        )
        flush_anomalies(telemetry, watchdogs, seed=seed, protocol=protocol)
    return protocols, result


def run_local_broadcast(
    network: Network,
    *,
    source: NodeId = 0,
    seed: int = 0,
    max_slots: int,
    body: Any = None,
    collision: CollisionModel | None = None,
    jammer: Jammer | None = None,
    trace: EventTrace | None = None,
    require_completion: bool = False,
    probe: "SlotProbe | None" = None,
    spans: "SpanProbe | None" = None,
    watchdogs: "Sequence[WatchdogProbe]" = (),
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> BroadcastResult:
    """Run COGCAST until every node is informed (or *max_slots*).

    This is the measurement entry point for the broadcast experiments:
    it reports *completion time* — the number of slots until the last
    node learns the message — rather than running for the fixed
    Theorem 4 bound.  *spans* reconstructs the distribution tree
    (:class:`repro.obs.spans.SpanProbe`); *watchdogs* check invariants
    live, their anomalies flowing to *telemetry* when given.
    *metrics* (a :class:`repro.obs.metrics.MetricsRegistry`) attaches a
    :class:`~repro.obs.metrics.MetricsProbe` and embeds its snapshot in
    the run record; *resources* (a started
    :class:`~repro.obs.metrics.ResourceSampler`) embeds its delta.
    Run records always carry ``elapsed_s`` (harness ``perf_counter``
    around :meth:`Engine.run`, so it never disengages the fast path)
    and ``fast_path`` (whether the fast kernel ran) when telemetry is
    attached.  *backend* selects the execution backend (see
    :mod:`repro.sim.backends`); results are equivalent per the
    backend's tier, and ineligible configurations transparently run
    exact.
    """

    def factory(view: NodeView) -> CogCast:
        return CogCast(view, is_source=(view.node_id == source), body=body)

    protocols, result = run_protocol(
        network,
        factory,
        protocol="cogcast",
        seed=seed,
        max_slots=max_slots,
        stop=AllInformed,
        collision=collision,
        trace=trace,
        jammer=jammer,
        probe=probe,
        spans=spans,
        watchdogs=watchdogs,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    if require_completion and not result.completed:
        raise SimulationError(
            f"local broadcast incomplete after {max_slots} slots "
            f"({sum(p.informed for p in protocols)}/{len(protocols)} informed)"
        )
    return _broadcast_result(result, protocols)


def run_data_aggregation(
    network: Network,
    values: Sequence[Any],
    *,
    source: NodeId = 0,
    seed: int = 0,
    aggregator: Aggregator | None = None,
    phase1_slots: int | None = None,
    max_phase4_steps: int | None = None,
    collision: CollisionModel | None = None,
    trace: EventTrace | None = None,
    require_completion: bool = False,
    probe: "SlotProbe | None" = None,
    spans: "SpanProbe | None" = None,
    watchdogs: "Sequence[WatchdogProbe]" = (),
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> AggregationResult:
    """Run COGCOMP end to end and return the source's aggregate.

    Parameters
    ----------
    values:
        ``values[u]`` is node ``u``'s datum.
    phase1_slots:
        Phase-one length ``l``; defaults to the Theorem 4 bound computed
        by :func:`repro.analysis.theory.cogcast_slot_bound`.
    max_phase4_steps:
        Safety budget for phase four; defaults to ``6n + 64`` steps
        (Theorem 10 guarantees ``O(n)``).
    spans:
        Optional :class:`repro.obs.spans.SpanProbe`; the runner hands it
        the protocol's exact phase timetable (``set_timetable(l)``) so
        its phase spans match ``phase2_start``/``phase3_start``/
        ``phase4_start`` by construction.
    watchdogs:
        Optional invariant watchdogs; anomalies flow to *telemetry*.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; attaches a
        metrics probe and embeds the snapshot in the run record.
    resources:
        Optional started :class:`repro.obs.metrics.ResourceSampler`;
        its delta rides on the run record as ``resources``.
    backend:
        Execution backend selection (see :mod:`repro.sim.backends`).
        COGCOMP's phased protocol has no columnar program, so the
        vector backend transparently runs it exact.
    """
    from repro.analysis.theory import cogcast_slot_bound

    n = network.num_nodes
    if len(values) != n:
        raise ValueError(f"{len(values)} values for {n} nodes")
    agg = aggregator if aggregator is not None else CollectAggregator()
    l = (
        phase1_slots
        if phase1_slots is not None
        else cogcast_slot_bound(n, network.channels_per_node, network.overlap)
    )
    steps_budget = max_phase4_steps if max_phase4_steps is not None else 6 * n + 64
    max_slots = 2 * l + n + 3 * steps_budget
    if spans is not None:
        spans.set_timetable(l)

    def factory(view: NodeView) -> CogComp:
        return CogComp(
            view,
            phase1_slots=l,
            value=values[view.node_id],
            aggregator=agg,
            is_source=(view.node_id == source),
        )

    def source_done(protocols: list[CogComp]) -> StopCondition:
        source_protocol = protocols[source]
        return lambda _: source_protocol.done

    def outcome(protocols: list[CogComp], result: RunResult) -> str:
        if any(protocol.failed for protocol in protocols):
            return "failed"
        return _budget_outcome(protocols, result)

    protocols, result = run_protocol(
        network,
        factory,
        protocol="cogcomp",
        seed=seed,
        max_slots=max_slots,
        stop=source_done,
        outcome=outcome,
        collision=collision,
        trace=trace,
        probe=probe,
        spans=spans,
        watchdogs=watchdogs,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    failures = tuple(
        node for node, protocol in enumerate(protocols) if protocol.failed
    )
    if require_completion and (not result.completed or failures):
        raise SimulationError(
            f"aggregation incomplete: completed={result.completed}, "
            f"failures={failures}"
        )
    phase4_slots = max(0, result.slots - (2 * l + n))
    return AggregationResult(
        value=protocols[source].aggregate if result.completed else None,
        completed=result.completed and not failures,
        total_slots=result.slots,
        phase1_slots=l,
        phase2_slots=n,
        phase3_slots=l,
        phase4_slots=phase4_slots,
        failures=failures,
        parents=tuple(protocol.parent for protocol in protocols),
        max_message_bits=max(
            protocol.max_message_bits for protocol in protocols
        ),
    )


def run_gossip(
    network: Network,
    sources: dict[NodeId, Any],
    *,
    seed: int = 0,
    max_slots: int,
    collision: CollisionModel | None = None,
    probe: "SlotProbe | None" = None,
    metrics: "MetricsRegistry | None" = None,
    resources: "ResourceSampler | None" = None,
    telemetry: "TelemetrySink | None" = None,
    backend: "str | EngineBackend | None" = None,
) -> GossipResult:
    """Run gossip until every node knows every source's message.

    ``sources`` maps originating node id to its message body.
    *metrics* / *resources* embed registry snapshots and sampler deltas
    in the run record, as in :func:`run_local_broadcast`.  *backend*
    selects the execution backend; gossip's stop predicate has no
    columnar form, so the vector backend transparently runs it exact.
    """
    if not sources:
        raise ValueError("need at least one source")
    n = network.num_nodes
    for node in sources:
        if not 0 <= node < n:
            raise ValueError(f"source {node} out of range")

    def factory(view: NodeView) -> GossipCast:
        initial = [sources[view.node_id]] if view.node_id in sources else []
        return GossipCast(view, initial)

    want = set(sources)

    def all_covered(protocols: list[GossipCast]) -> StopCondition:
        return lambda _: all(want <= set(protocol.known) for protocol in protocols)

    protocols, result = run_protocol(
        network,
        factory,
        protocol="gossip",
        seed=seed,
        max_slots=max_slots,
        stop=all_covered,
        collision=collision,
        probe=probe,
        metrics=metrics,
        resources=resources,
        telemetry=telemetry,
        backend=backend,
    )
    return GossipResult(
        slots=result.slots,
        completed=result.completed,
        messages=len(sources),
        coverage=tuple(len(protocol.known) for protocol in protocols),
    )
