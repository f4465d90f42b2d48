"""The slot-synchronous simulation engine.

One :class:`Engine` drives one execution: each slot it collects an
action from every live protocol, translates local labels to physical
channels via the :class:`~repro.sim.channels.Network`, applies the
jammer (if any), resolves contention per channel with the configured
:class:`~repro.sim.collision.CollisionModel`, and feeds every node its
:class:`~repro.sim.actions.SlotOutcome`.

The engine enforces the information model: protocols only ever see local
labels and their own outcomes.  All global knowledge (physical channels,
who collided with whom) lives here and, optionally, in an event sink for
analysis.

Outputs: a run reports through its :class:`RunResult` and one event
sink.  The engine's ``trace`` is the one per-event output: an *event
sink* — any object with ``record(event)``, e.g. an
:class:`~repro.sim.trace.EventTrace` — that receives every
:class:`~repro.sim.trace.ChannelEvent` as the general kernel resolves
it.  ``run(totals=True)`` adds the run's :class:`RunTotals` to its
result, which every kernel keeps identically; a registry counts a run
from them (:func:`repro.obs.metrics.count_run`).  The engine
deliberately does not import :mod:`repro.obs` (the dependency points
the other way).

Kernels: :meth:`Engine.step` is the general kernel.  :meth:`Engine.run`
detects the common configuration — static schedule, no jammer, the
paper's single-winner collision model, and no event sink — and switches
to a specialized step kernel that precomputes the label→channel tables,
while producing bit-identical results (same outcomes, same RNG stream,
same errors, same run totals).  The subclass
:class:`repro.sim.backends.vector.VectorEngine` adds the third, columnar
kernel; all three advance one slot clock, draw from one collision
stream, and build the result through one run start and one run end.
See ``docs/performance.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.actions import Action, Broadcast, Envelope, Idle, Listen, SlotOutcome
from repro.sim.adversary import Jammer, NullJammer
from repro.sim.channels import Network, StaticSchedule
from repro.sim.collision import CollisionModel, SingleWinnerCollision
from repro.sim.protocol import NodeView, Protocol
from repro.sim.rng import derive_rng
from repro.sim.trace import ChannelEvent, EventTrace
from repro.types import Channel, NodeId, ProtocolViolationError, SimulationError


@dataclass(frozen=True, slots=True)
class RunTotals:
    """What one run's channel events add up to, on every kernel.

    Attributes
    ----------
    contention: the contender count of every channel-slot with at least
        one broadcaster, in (slot, ascending channel) order; jammed
        broadcasters contend.
    deliveries: listeners that heard a winner.
    wasted_listens: listeners that heard nothing, jammed listeners
        included.

    These are the sums of the run's :class:`~repro.sim.trace.ChannelEvent`
    stream, as :func:`repro.sim.metrics.compute_metrics` folds it.
    """

    contention: tuple[int, ...]
    deliveries: int
    wasted_listens: int


@dataclass(frozen=True, slots=True)
class RunResult:
    """Summary of one engine run.

    Attributes
    ----------
    slots: number of slots executed.
    completed: whether the stop condition was met (as opposed to the
        slot budget running out).
    all_done: whether every protocol had terminated when the run ended.
    totals: the run's :class:`RunTotals` when it was asked for them
        (``run(totals=True)``), else ``None``.
    """

    slots: int
    completed: bool
    all_done: bool
    totals: RunTotals | None = None


class Engine:
    """Drives a set of per-node protocols over a network.

    Parameters
    ----------
    network:
        The world model (channel schedule + parameters).
    protocols:
        One protocol per node, indexed by node id.
    collision:
        Contention model; defaults to the paper's single-winner model.
    seed:
        Root seed for the engine's own randomness (collision tie-breaks).
        Node randomness comes from each protocol's own RNG.
    trace:
        Optional event sink: any object with ``record(event)``, e.g. an
        :class:`~repro.sim.trace.EventTrace`.  It receives every channel
        event, and attaching it selects the general kernel.
    jammer:
        Optional jamming adversary.
    fast_path:
        Allow :meth:`run` to use the specialized step kernel when the
        configuration permits (see :meth:`_fast_path_eligible`).  The
        kernel is bit-identical to the general one — same outcomes,
        same RNG stream, same errors — so this is purely a performance
        switch; set False to force the general kernel (used by the
        equivalence tests).
    """

    def __init__(
        self,
        network: Network,
        protocols: Sequence[Protocol],
        *,
        collision: CollisionModel | None = None,
        seed: int = 0,
        trace: EventTrace | None = None,
        jammer: Jammer | None = None,
        fast_path: bool = True,
    ) -> None:
        if len(protocols) != network.num_nodes:
            raise ValueError(
                f"{len(protocols)} protocols for {network.num_nodes} nodes"
            )
        self.network = network
        self.protocols = list(protocols)
        self.collision = collision or SingleWinnerCollision()
        self.rng = derive_rng(seed, "engine-collision")
        self.trace = trace
        self.jammer = jammer or NullJammer()
        # The totals of a run that asked for them (see RunTotals), kept
        # by every kernel; ``_contention`` is ``None`` while no run
        # keeps them.  :meth:`_start_run` resets them.
        self._contention: list[int] | None = None
        self._deliveries = 0
        self._wasted_listens = 0
        self.slot = 0
        self.fast_path = fast_path
        #: Whether the most recent :meth:`run` used the fast kernel.
        self.fast_path_engaged = False

    @property
    def all_done(self) -> bool:
        return all(protocol.done for protocol in self.protocols)

    def step(self) -> None:
        """Execute one synchronous slot.

        Effects: rng.
        """
        slot = self.slot
        num_nodes = self.network.num_nodes
        trace = self.trace

        actions: dict[NodeId, Action] = {}
        for node, protocol in enumerate(self.protocols):
            if protocol.done:
                continue
            actions[node] = protocol.begin_slot(slot)

        jammed_at = self.jammer.jammed(slot, num_nodes)

        # Group participants by physical channel.
        broadcasters: dict[Channel, list[tuple[NodeId, Envelope]]] = {}
        listeners: dict[Channel, list[NodeId]] = {}
        jammed_participants: dict[Channel, set[NodeId]] = {}
        for node, action in actions.items():
            if isinstance(action, Idle):
                continue
            channel = self.network.physical(slot, node, action.label)
            if channel in jammed_at.get(node, frozenset()):
                jammed_participants.setdefault(channel, set()).add(node)
                continue
            if isinstance(action, Broadcast):
                envelope = Envelope(sender=node, payload=action.payload)
                broadcasters.setdefault(channel, []).append((node, envelope))
            else:
                listeners.setdefault(channel, []).append(node)

        # Resolve contention channel by channel.
        contention = self._contention
        tally = contention is not None
        deliveries = 0
        wasted_listens = 0
        outcomes: dict[NodeId, SlotOutcome] = {}
        active_channels = sorted(set(broadcasters) | set(listeners) | set(jammed_participants))
        for channel in active_channels:
            channel_broadcasters = broadcasters.get(channel, [])
            channel_listeners = listeners.get(channel, [])
            channel_jammed = jammed_participants.get(channel, set())
            resolution = self.collision.resolve(
                [envelope for _, envelope in channel_broadcasters], self.rng
            )
            winner = resolution.winner

            for node, envelope in channel_broadcasters:
                success = winner is not None and envelope is winner
                extras = tuple(
                    extra for extra in resolution.extras if extra is not envelope
                )
                outcomes[node] = SlotOutcome(
                    slot=slot,
                    action=actions[node],
                    received=None if success else winner,
                    success=success,
                    extra_received=extras,
                )
            for node in channel_listeners:
                outcomes[node] = SlotOutcome(
                    slot=slot,
                    action=actions[node],
                    received=winner,
                    extra_received=resolution.extras,
                )
            for node in channel_jammed:
                outcomes[node] = SlotOutcome(
                    slot=slot,
                    action=actions[node],
                    received=None,
                    success=False if isinstance(actions[node], Broadcast) else None,
                    jammed=True,
                )

            if not (tally or trace is not None):
                continue
            # Jammed participants still count: a jammed broadcaster
            # contends, and a jammed listener hears nothing.
            jammed_broadcasters = tuple(
                node for node in channel_jammed if isinstance(actions[node], Broadcast)
            )
            jammed_listeners = tuple(
                node for node in channel_jammed if isinstance(actions[node], Listen)
            )
            if tally:
                contenders = len(channel_broadcasters) + len(jammed_broadcasters)
                if contenders:
                    contention.append(contenders)
                if winner is None:
                    wasted_listens += len(channel_listeners) + len(jammed_listeners)
                else:
                    deliveries += len(channel_listeners)
                    wasted_listens += len(jammed_listeners)
            if trace is not None:
                trace.record(
                    ChannelEvent(
                        slot=slot,
                        channel=channel,
                        broadcasters=tuple(node for node, _ in channel_broadcasters)
                        + jammed_broadcasters,
                        listeners=tuple(channel_listeners) + jammed_listeners,
                        winner=winner,
                        jammed_nodes=frozenset(channel_jammed),
                    )
                )
        self._deliveries += deliveries
        self._wasted_listens += wasted_listens

        # Idle nodes still get an outcome so protocols see every slot.
        for node, action in actions.items():
            if node not in outcomes:
                outcomes[node] = SlotOutcome(slot=slot, action=action)

        for node, outcome in outcomes.items():
            self.protocols[node].end_slot(slot, outcome)

        self.slot += 1

    def _fast_ineligible_reason(self) -> str | None:
        """Why the fast and columnar kernels may not run (``None``: they may).

        Both emit no channel events and skip the jammer, and both
        hard-code single-winner contention on a plain :class:`Network`.
        Exact types are required (not ``isinstance``): a subclass
        overriding any of these hooks would change the semantics the
        kernels hard-code.  The strings, checked in this order, are the
        columnar kernel's ``vector_fallback_reason``.
        """
        if self.trace is not None:
            return "event trace attached"
        if type(self.jammer) is not NullJammer:
            return "jamming adversary attached"
        if type(self.collision) is not SingleWinnerCollision:
            return "non-default collision model"
        if type(self.network) is not Network:
            return "network subclass"
        return None

    def _fast_path_eligible(self) -> bool:
        """Whether :meth:`run` may use the specialized step kernel.

        The common benchmark configuration — a static assignment, no
        jamming, the paper's single-winner contention model, and no
        event sink — pays for generality it never uses: per-action
        ``schedule.at`` lookups, the jammer query, and per-channel
        event checks every slot.  The fast kernel elides all of that.
        """
        return (
            self.fast_path
            and self._fast_ineligible_reason() is None
            and type(self.network.schedule) is StaticSchedule
        )

    def _run_fast(
        self, max_slots: int, condition: Callable[["Engine"], bool]
    ) -> tuple[int, bool]:
        """The specialized run loop; bit-identical to the general path.

        Equivalence invariants (guarded by tests/test_engine_fastpath.py):

        - label translation uses a precomputed per-node table from the
          static assignment, with the same bounds check and error as
          :meth:`Network.physical`;
        - channels resolve in sorted order and the collision RNG is
          consulted exactly when two or more nodes broadcast on one
          channel, via the same ``rng.choice`` call the general path's
          :class:`SingleWinnerCollision` makes — so the RNG stream is
          identical draw for draw;
        - outcomes are constructed with the same field values and
          delivered in the same order;
        - asked for totals, it keeps the ones the general kernel keeps:
          contenders per contended channel in (slot, ascending channel)
          order, listeners that heard a winner, and listeners on
          channels nobody broadcast on.

        Per-slot scratch dicts are allocated once and cleared, not
        rebuilt, which is safe because nothing retains the containers —
        outcomes hold the (immutable) actions and envelopes themselves.
        """
        protocols = self.protocols
        table = self.network.assignment_at(0).channels
        num_labels = self.network.channels_per_node
        choice = self.rng.choice
        # Hoisted constructors/sentinels: global lookups are not free at
        # ~one SlotOutcome per node per slot.
        outcome_cls = SlotOutcome
        envelope_cls = Envelope
        idle_cls = Idle
        broadcast_cls = Broadcast
        listen_cls = Listen
        broadcasters: dict[Channel, list[tuple[NodeId, Action, Envelope]]] = {}
        listeners: dict[Channel, list[tuple[NodeId, Action]]] = {}
        idles: list[tuple[NodeId, Action]] = []
        outcomes: dict[NodeId, SlotOutcome] = {}
        contention = self._contention
        track = contention is not None
        deliveries = 0
        wasted_listens = 0
        executed = 0
        completed = condition(self)
        while not completed and executed < max_slots:
            slot = self.slot
            broadcasters.clear()
            listeners.clear()
            idles.clear()
            outcomes.clear()
            for node, protocol in enumerate(protocols):
                if protocol.done:
                    continue
                action = protocol.begin_slot(slot)
                cls = action.__class__
                if cls is idle_cls:
                    idles.append((node, action))
                    continue
                if cls is not broadcast_cls and cls is not listen_cls:
                    # Action subclass: route by isinstance, exactly as
                    # the general kernel would.
                    if isinstance(action, idle_cls):
                        idles.append((node, action))
                        continue
                    cls = broadcast_cls if isinstance(action, broadcast_cls) else listen_cls
                label = action.label
                if not 0 <= label < num_labels:
                    raise ProtocolViolationError(
                        f"node {node} used local label {label}; "
                        f"valid labels are 0..{num_labels - 1}"
                    )
                channel = table[node][label]
                if cls is broadcast_cls:
                    entry = (node, action, envelope_cls(node, action.payload))
                    bucket = broadcasters.get(channel)
                    if bucket is None:
                        broadcasters[channel] = [entry]
                    else:
                        bucket.append(entry)
                else:
                    pair = (node, action)
                    pairs = listeners.get(channel)
                    if pairs is None:
                        listeners[channel] = [pair]
                    else:
                        pairs.append(pair)

            for channel in sorted(broadcasters.keys() | listeners.keys()):
                channel_broadcasters = broadcasters.get(channel)
                if channel_broadcasters is None:
                    winner = None
                elif len(channel_broadcasters) == 1:
                    # Single participant: no contention, no RNG draw —
                    # exactly what SingleWinnerCollision.resolve does.
                    node, action, winner = channel_broadcasters[0]
                    outcomes[node] = outcome_cls(slot, action, None, True)
                else:
                    winner = choice(
                        [envelope for _, _, envelope in channel_broadcasters]
                    )
                    for node, action, envelope in channel_broadcasters:
                        if envelope is winner:
                            outcomes[node] = outcome_cls(slot, action, None, True)
                        else:
                            outcomes[node] = outcome_cls(slot, action, winner, False)
                channel_listeners = listeners.get(channel)
                if channel_listeners is not None:
                    for node, action in channel_listeners:
                        outcomes[node] = outcome_cls(slot, action, winner)
                if track:
                    if channel_broadcasters is None:
                        wasted_listens += len(channel_listeners)
                    else:
                        contention.append(len(channel_broadcasters))
                        if channel_listeners is not None:
                            deliveries += len(channel_listeners)

            for node, outcome in outcomes.items():
                protocols[node].end_slot(slot, outcome)
            # Idle nodes still get an outcome, delivered after the
            # channel participants exactly as in the general kernel.
            for node, action in idles:
                protocols[node].end_slot(slot, outcome_cls(slot, action))

            self.slot += 1
            executed += 1
            completed = condition(self)
        self._deliveries = deliveries
        self._wasted_listens = wasted_listens
        return executed, completed

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Callable[["Engine"], bool] | None = None,
        require_completion: bool = False,
        totals: bool = False,
    ) -> RunResult:
        """Run until the stop condition, all protocols terminate, or the budget.

        Parameters
        ----------
        max_slots:
            Hard budget on the number of slots executed by this call.
        stop_when:
            Optional predicate evaluated after every slot; the run stops
            as soon as it returns True.  When omitted, the run stops when
            every protocol reports :attr:`Protocol.done`.
        require_completion:
            When True, raise :class:`SimulationError` if the budget runs
            out before the stop condition is met.
        totals:
            When True, the result carries the run's :class:`RunTotals`
            (``None`` otherwise).  Every kernel keeps them, so asking
            never changes the kernel; they cost memory in proportion to
            the run's contended channel-slots.

        When the configuration allows (static schedule, no jammer, the
        default collision model, no event sink — see
        :meth:`_fast_path_eligible`), the run uses a specialized kernel
        that produces bit-identical results faster; whether it engaged
        is recorded in :attr:`fast_path_engaged`.

        Effects: rng.
        """
        condition = stop_when if stop_when is not None else (lambda engine: engine.all_done)
        self._start_run(totals)
        self.fast_path_engaged = self._fast_path_eligible()
        if self.fast_path_engaged:
            executed, completed = self._run_fast(max_slots, condition)
        else:
            executed = 0
            completed = condition(self)
            while not completed and executed < max_slots:
                self.step()
                executed += 1
                completed = condition(self)
        return self._end_run(max_slots, executed, completed, require_completion)

    def _start_run(self, totals: bool) -> None:
        """Reset the run totals; keep them only when *totals* is asked for.

        Every kernel's run starts and ends through this pair, so the
        totals mean the same whichever kernel ran.
        """
        self._contention = [] if totals else None
        self._deliveries = 0
        self._wasted_listens = 0

    def _end_run(
        self, max_slots: int, executed: int, completed: bool, require_completion: bool
    ) -> RunResult:
        """Build the run's result, with its totals when the run kept them."""
        contention, self._contention = self._contention, None
        if require_completion and not completed:
            raise SimulationError(
                f"run did not complete within {max_slots} slots"
            )
        return RunResult(
            slots=executed,
            completed=completed,
            all_done=self.all_done,
            totals=None
            if contention is None
            else RunTotals(tuple(contention), self._deliveries, self._wasted_listens),
        )


def make_views(network: Network, seed: int) -> list[NodeView]:
    """Construct one :class:`NodeView` per node, each keeping the root *seed*.

    Building a view derives nothing: node ``u``'s stream,
    ``derive_rng(seed, "node", u)``, is seeded the first time the view's
    ``rng`` is read (:attr:`NodeView.rng`), so a node that never draws
    never seeds one — none does in a columnar ``vector`` run.
    """
    c = network.channels_per_node
    k = network.overlap
    n = network.num_nodes
    return [NodeView(node, c, k, n, seed=seed) for node in range(n)]


def build_engine(
    network: Network,
    protocol_factory: Callable[[NodeView], Protocol],
    *,
    seed: int = 0,
    collision: CollisionModel | None = None,
    trace: EventTrace | None = None,
    jammer: Jammer | None = None,
    fast_path: bool = True,
    backend: str | None = None,
) -> Engine:
    """Convenience constructor: build views, protocols, and the engine.

    *protocol_factory* receives each node's :class:`NodeView` and returns
    that node's protocol (it can branch on ``view.node_id`` to make one
    node the source).

    *backend* names the execution backend: ``"exact"`` builds an
    :class:`Engine`, ``"vector"`` and ``"vector-replay"`` a
    :class:`~repro.sim.backends.vector.VectorEngine` with
    ``rng_mode="numpy"`` and ``"replay"``.  ``None`` is the per-process
    default (``"exact"`` unless changed via
    :func:`repro.sim.backends.set_default_backend` / the CLI's
    ``--backend`` flag); any other value raises ``ValueError``.
    Whatever the backend, the returned object is an :class:`Engine`;
    views, protocols, and seed derivation are identical across backends.
    """
    # Imported here, not at module top: backends import this module.
    from repro.sim.backends.base import resolve_backend

    name = resolve_backend(backend)
    views = make_views(network, seed)
    protocols = [protocol_factory(view) for view in views]
    options = dict(
        collision=collision,
        seed=seed,
        trace=trace,
        jammer=jammer,
        fast_path=fast_path,
    )
    if name == "exact":
        return Engine(network, protocols, **options)
    from repro.sim.backends.vector import VectorEngine

    rng_mode = "replay" if name == "vector-replay" else "numpy"
    return VectorEngine(network, protocols, rng_mode=rng_mode, **options)
