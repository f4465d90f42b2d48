"""The vector backends: an engine with a numpy columnar kernel.

:class:`VectorEngine` is an :class:`~repro.sim.engine.Engine` that adds
one kernel.  Instead of driving ``n`` Python protocol objects slot by
slot, the columnar kernel represents the population as arrays —
per-slot channel choices, a broadcaster mask, grouped single-winner
collision resolution, and receptions as boolean array ops — so the
per-slot cost is a fixed number of numpy kernels over ``n``-element
arrays rather than ``~n`` Python-level calls.  On uninstrumented
``n >= 10^4`` COGCAST runs this is well over an order of magnitude
faster than the exact engine's fast path
(``benchmarks/bench_backends.py``).

One slot loop (:meth:`VectorEngine._run_vector`) runs every columnar
program: it draws the labels, maps them through the label->channel
table, resolves one winner per contended channel and keeps the run
totals.  A program supplies the rest: who broadcasts which message,
what a reception does, its stop test, and how its state crosses the
``vector_export`` / ``vector_import`` boundary.  Two programs exist,
by ``vector_kind``:

- ``"epidemic-broadcast"`` (COGCAST): informed nodes broadcast their
  one message, uninformed nodes listen and take the first message they
  hear; stop test :class:`~repro.sim.backends.base.AllInformed`.
- ``"gossip"`` (``GossipCast``): a node that knows any message
  broadcasts one of them, chosen uniformly; every non-winner on a won
  channel, losing broadcasters as well as listeners, learns the
  winner's message; stop test :class:`~repro.sim.backends.base.AllKnow`.

In neither does a node ever terminate on its own.

Equivalence contract (see ``docs/performance.md`` "Backends"):

- **Tier A (bit-identical).**  With ``rng_mode="replay"`` the kernel
  consumes every stream exactly as the exact engine does.  Each slot
  it takes the draws ``randrange(c)`` makes from every node's own
  :class:`random.Random` — ``getrandbits`` of ``c``'s bit length,
  redrawn while ``>= c`` — batched across nodes: one pass for all
  nodes, then redraws for only the rejected ones.  Gossip's
  broadcasters then draw their message the same way on the same
  streams (``randrange(len(known))``, the ``r``-th known origin in
  ascending order).  The order across nodes is free because each
  stream is one node's, so a population whose streams are not distinct
  plain ``random.Random`` objects takes the exact kernels.  From the
  engine's collision stream it takes one ``choice`` per contended
  channel, in ascending physical channel order; a lone broadcaster wins
  with no draw.  Final protocol states, ``RunResult``, and both RNG
  stream states are equal draw for draw — this mode exists to prove the
  columnar grouping/collision/delivery machinery exact, and it reuses
  the fast path's eligibility discipline (exact types only).
- **Tier B (statistical).**  The default ``rng_mode="numpy"`` draws
  from a :class:`numpy.random.Generator` seeded via the repository's
  seed discipline (``derive_seed(seed, "vector-engine")``).  Runs are
  deterministic per seed but follow a different stream than the exact
  engine, so equivalence is established statistically:
  ``tests/test_backends.py`` cross-validates completion-slot and
  collision-rate distributions against the exact backend with
  bootstrap CIs and checks the epidemic invariants on the results.

Any run the kernel cannot prove equivalent — jammers, non-default
collision models, event sinks (traces, spans, the mediator-uniqueness
watchdog), protocols without a program or a population mixing two
programs, stop conditions without the program's tag — falls back
transparently: the same engine runs it on the exact kernels
(``Engine.run``), with one slot clock and one collision stream across
every run, so ``backend="vector"`` is always safe to request.
``run(totals=True)`` keeps the columnar path: it keeps the same
:class:`~repro.sim.engine.RunTotals` as the exact kernels and returns
them through the engine's one run end.  So do the run-end watchdogs
(:mod:`repro.obs.watchdog`), which read the protocols' state after
:meth:`~VectorEngine.run` imports it back.

numpy itself is imported lazily: constructing the engine without
numpy installed raises one actionable error instead of an ImportError
at package import time.  ``build_engine(backend="vector")`` builds it
with ``rng_mode="numpy"``, and ``backend="vector-replay"`` with
``rng_mode="replay"``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.sim.backends.base import BackendUnavailableError, vector_contract
from repro.sim.channels import DynamicSchedule, Network, StaticSchedule
from repro.sim.engine import Engine, RunResult
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.protocol import Protocol

#: Sentinel for "never informed" in the columnar slot array (``-1`` is
#: taken: it is the exported value for "informed before slot 0").
_NEVER = -2

#: ``draw(nodes, bounds)``: one ``randrange(bounds[i])`` for each node
#: ``nodes[i]``, as an int64 array, from the run's random source.
_Draw = Callable[[Any, Any], Any]


def _numpy():
    """Import numpy on first use, with a one-line actionable error.

    Called when the engine is built and once per run, not per slot;
    repeat imports are a ``sys.modules`` dict hit, so no extra caching
    layer is needed.
    """
    try:
        import numpy
    except ImportError as exc:
        raise BackendUnavailableError(
            "the vector backend requires numpy: install the perf extra "
            "(pip install 'repro[perf]') or select backend='exact'"
        ) from exc
    return numpy


class _Epidemic:
    """The ``epidemic-broadcast`` program (COGCAST).

    Informed nodes broadcast their one message; an uninformed node that
    hears a winner takes its message, its sender as parent, the slot
    and its own label.
    """

    #: The ``vector_condition`` of the stop test this program evaluates.
    condition = "all_informed"

    def __init__(self, np: Any, exports: list[dict[str, Any]], stop_when: Any) -> None:
        self.np = np
        self.informed = np.array([bool(e["informed"]) for e in exports], dtype=bool)
        self.messages: list[Any] = [e["message"] for e in exports]
        self.parent = np.array(
            [-1 if e["parent"] is None else e["parent"] for e in exports],
            dtype=np.int64,
        )
        self.informed_slot = np.array(
            [
                _NEVER if e["informed_slot"] is None else e["informed_slot"]
                for e in exports
            ],
            dtype=np.int64,
        )
        self.informed_label = np.array(
            [
                -1 if e["informed_label"] is None else e["informed_label"]
                for e in exports
            ],
            dtype=np.int64,
        )
        self.exports = exports

    def senders(self, draw: _Draw) -> Any:
        """The broadcaster mask: every informed node, with its message."""
        return self.informed

    def receive(
        self,
        slot: int,
        labels: Any,
        channels: Any,
        winner_node: Any,
        heard: Any,
        delivered: Any,
    ) -> None:
        """Inform every listener that heard a winner (*delivered*)."""
        new_nodes = self.np.flatnonzero(delivered)
        if new_nodes.size:
            winners = winner_node[channels[new_nodes]]
            self.parent[new_nodes] = winners
            self.informed_slot[new_nodes] = slot
            self.informed_label[new_nodes] = labels[new_nodes]
            messages = self.messages
            for node, source in zip(new_nodes.tolist(), winners.tolist()):
                messages[node] = messages[source]
            self.informed[new_nodes] = True

    def done(self) -> bool:
        return bool(self.informed.all())

    def states(self, labels: Any) -> Iterator[dict[str, Any]]:
        """Each node's ``vector_import`` state (*labels*: the last slot's).

        Yielded one at a time, so a large population never holds them all.
        """
        informed = self.informed.tolist()
        parent = self.parent.tolist()
        slots = self.informed_slot.tolist()
        informed_labels = self.informed_label.tolist()
        if labels is None:
            current = [export["current_label"] for export in self.exports]
        else:
            current = labels.tolist()
        for node, message in enumerate(self.messages):
            yield {
                "informed": informed[node],
                "message": message,
                "parent": None if parent[node] < 0 else parent[node],
                "informed_slot": None if slots[node] == _NEVER else slots[node],
                "informed_label": (
                    None if informed_labels[node] < 0 else informed_labels[node]
                ),
                "current_label": current[node],
            }


class _Gossip:
    """The ``gossip`` program (``GossipCast``).

    ``known`` is a node-by-origin boolean matrix whose columns are the
    origins in ascending order.  A node that knows any message
    broadcasts the ``r``-th origin it knows, ``r`` drawn below how many
    it knows; every non-winner on a won channel learns the winner's
    message.  Each origin has one payload object, the one every node
    that knows it holds (``GossipCast`` originates at most one message
    per node, keyed by the node's id), so receptions are recorded as
    ``(slot, node, column)`` and rebuilt into the nodes' dicts, in the
    order they happened, only at the end of the run.
    """

    condition = "all_know"

    def __init__(self, np: Any, exports: list[dict[str, Any]], stop_when: Any) -> None:
        self.np = np
        self.exports = exports
        need = frozenset(() if stop_when is None else stop_when.origins)
        self.origins = sorted(need.union(*(e["known"] for e in exports)))
        column = {origin: index for index, origin in enumerate(self.origins)}
        self.payloads: list[Any] = [None] * len(self.origins)
        self.known = np.zeros((len(exports), len(self.origins)), dtype=bool)
        for node, export in enumerate(exports):
            for origin, payload in export["known"].items():
                self.known[node, column[origin]] = True
                self.payloads[column[origin]] = payload
        self.count = self.known.sum(axis=1)
        self.rows = np.arange(len(exports))
        #: The column each broadcaster sends this slot.
        self.sent = np.zeros(len(exports), dtype=np.int64)
        self.need = np.array([origin in need for origin in self.origins], dtype=bool)
        self.missing = int(np.count_nonzero(~self.known[:, self.need]))
        self.learned: list[tuple[int, list[int], list[int]]] = []

    def senders(self, draw: _Draw) -> Any:
        """The broadcaster mask; each broadcaster's message goes in ``sent``."""
        np = self.np
        sending = self.count > 0
        nodes = np.flatnonzero(sending)
        if nodes.size:
            picks = draw(nodes, self.count[nodes])
            # The first column where a node's running count of known
            # origins passes its pick is its pick-th origin.
            ranks = np.cumsum(self.known[nodes], axis=1)
            self.sent[nodes] = np.argmax(ranks > picks[:, None], axis=1)
        return sending

    def receive(
        self,
        slot: int,
        labels: Any,
        channels: Any,
        winner_node: Any,
        heard: Any,
        delivered: Any,
    ) -> None:
        """Every non-winner that *heard* a winner learns its message."""
        np = self.np
        heard_from = winner_node[channels]
        nodes = np.flatnonzero(heard & (heard_from != self.rows))
        if nodes.size:
            columns = self.sent[heard_from[nodes]]
            new = ~self.known[nodes, columns]
            nodes, columns = nodes[new], columns[new]
            if nodes.size:
                self.known[nodes, columns] = True
                self.count[nodes] += 1
                self.missing -= int(np.count_nonzero(self.need[columns]))
                self.learned.append((slot, nodes.tolist(), columns.tolist()))

    def done(self) -> bool:
        return self.missing == 0

    def states(self, labels: Any) -> Iterator[dict[str, Any]]:
        """Each node's ``known`` and ``first_heard``, receptions appended in order."""
        known = [dict(export["known"]) for export in self.exports]
        first_heard = [dict(export["first_heard"]) for export in self.exports]
        for slot, nodes, columns in self.learned:
            for node, column in zip(nodes, columns):
                origin = self.origins[column]
                known[node][origin] = self.payloads[column]
                first_heard[node][origin] = slot
        for node_known, node_first_heard in zip(known, first_heard):
            yield {"known": node_known, "first_heard": node_first_heard}


#: The columnar programs this engine implements, by ``vector_kind``.
_PROGRAMS: dict[str, type] = {"epidemic-broadcast": _Epidemic, "gossip": _Gossip}

#: The stop conditions some program evaluates, by ``vector_condition``.
_CONDITIONS = frozenset(program.condition for program in _PROGRAMS.values())


class VectorEngine(Engine):
    """An :class:`~repro.sim.engine.Engine` that adds the columnar kernel.

    :meth:`run` takes the columnar kernel when it can prove the run
    equivalent and otherwise runs as :class:`~repro.sim.engine.Engine`
    does, on the same object: every kernel advances one slot clock,
    draws from one collision stream and keeps the same run totals.
    Whether the most recent ``run`` used the columnar kernel is recorded
    in :attr:`vector_engaged`; when it fell back,
    :attr:`vector_fallback_reason` says why.

    Parameters are :class:`~repro.sim.engine.Engine`'s, plus:

    rng_mode:
        ``"numpy"`` (default) draws channel choices and collision
        winners from a seeded :class:`numpy.random.Generator` — the
        fast, Tier-B mode.  ``"replay"`` consumes the exact engine's
        Python streams as the exact engine does (each node's stream
        as ``randrange`` would, in any order across nodes), producing
        bit-identical runs (Tier A) at reduced speedup.  Any other
        value raises ``ValueError``; a missing numpy raises
        :class:`~repro.sim.backends.base.BackendUnavailableError`.
    """

    def __init__(
        self,
        network: Network,
        protocols: "Sequence[Protocol]",
        *,
        seed: int = 0,
        rng_mode: str = "numpy",
        **options: Any,
    ) -> None:
        if rng_mode not in ("numpy", "replay"):
            raise ValueError(f"rng_mode must be 'numpy' or 'replay', got {rng_mode!r}")
        _numpy()
        super().__init__(network, protocols, seed=seed, **options)
        self.rng_mode = rng_mode
        #: Whether the most recent :meth:`run` used the columnar kernel.
        self.vector_engaged = False
        #: Why the most recent :meth:`run` fell back (``None`` = engaged).
        self.vector_fallback_reason: str | None = None
        self._seed = seed
        self._np_rng = None

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Any = None,
        require_completion: bool = False,
        totals: bool = False,
    ) -> RunResult:
        """Run columnar when provably equivalent; otherwise as ``Engine`` does.

        Effects: rng.
        """
        reason, program, exports = self._vector_ineligible_reason(stop_when)
        self.vector_fallback_reason = reason
        self.vector_engaged = reason is None
        if reason is not None:
            return super().run(
                max_slots,
                stop_when=stop_when,
                require_completion=require_completion,
                totals=totals,
            )
        self.fast_path_engaged = False
        self._start_run(totals)
        executed, completed = self._run_vector(max_slots, stop_when, program, exports)
        return self._end_run(max_slots, executed, completed, require_completion)

    # -- eligibility ----------------------------------------------------

    def _vector_ineligible_reason(
        self, stop_when: Any
    ) -> tuple[str | None, type | None, list[dict[str, Any]]]:
        """Why this run must take the exact kernels (``None`` = columnar).

        Starts with the checks the fast kernel makes too
        (:meth:`Engine._fast_ineligible_reason`), then adds the
        columnar kernel's own, keeping the fast path's discipline of
        exact types only.  Unknown protocols or stop conditions are not
        an error — the exact kernels handle everything — so requesting
        the vector backend never changes observable behavior, only speed.

        Also returns the population's program and the protocols'
        ``vector_export()`` snapshots, which the last three checks read
        and the kernel starts from (empty when an earlier check already
        failed).  Every check runs before any state mutates, so falling
        back is always safe.
        """
        reason = self._fast_ineligible_reason()
        if reason is not None:
            return reason, None, []
        if type(self.network.schedule) not in (StaticSchedule, DynamicSchedule):
            return "unknown schedule type", None, []
        condition = getattr(stop_when, "vector_condition", None)
        if stop_when is not None and condition not in _CONDITIONS:
            return "stop condition has no columnar form", None, []
        kinds = {
            type(protocol).__dict__.get("vector_kind") for protocol in self.protocols
        }
        if not kinds <= _PROGRAMS.keys():
            return "protocol has no columnar program", None, []
        if len(kinds) > 1:
            return "protocols mix columnar programs", None, []
        (kind,) = kinds or {"epidemic-broadcast"}  # an empty population runs nothing
        program = _PROGRAMS[kind]
        if stop_when is not None and condition != program.condition:
            return "stop condition has no columnar form", None, []
        exports = [protocol.vector_export() for protocol in self.protocols]
        contract = vector_contract(kind)
        if contract is not None:
            for export in exports:
                # A protocol whose export omits fields the kernel
                # materializes is not an error either: name the missing
                # fields so the gap is visible.
                missing = contract.missing_fields(export)
                if missing:
                    return (
                        "vector export missing contract fields: " + ", ".join(missing),
                        None,
                        [],
                    )
        if any(export.get("keep_log") for export in exports):
            # Logs are per-slot Python records; populations that keep
            # them (COGCOMP phase one) take the exact engine.
            return "protocol keeps a per-slot log", None, []
        if self.rng_mode == "replay":
            # The batched draws reproduce randrange only on distinct
            # plain random.Random streams.
            streams = [export["rng"] for export in exports]
            plain = all(type(stream) is random.Random for stream in streams)
            if not plain or len(set(streams)) < len(streams):
                return "node streams are not distinct random.Random instances", None, []
        return None, program, exports

    # -- the columnar kernel --------------------------------------------

    def _run_vector(
        self,
        max_slots: int,
        stop_when: Any,
        program_type: type,
        exports: list[dict[str, Any]],
    ) -> tuple[int, bool]:
        """Run *program_type*'s columnar program from *exports*.

        The one slot loop every program shares: labels, channels,
        winners and totals are drawn and kept here, and the program
        says who broadcasts which message, what a reception does and
        when the run is done.

        Effects: rng.
        """
        np = _numpy()
        network = self.network
        n = network.num_nodes
        c = network.channels_per_node
        program = program_type(np, exports, stop_when)

        schedule = network.schedule
        static = type(schedule) is StaticSchedule
        rows = np.arange(n)

        def table_for(slot: int) -> tuple[Any, int]:
            """Label->channel table for *slot*, remapped to dense channel ids.

            ``np.unique`` sorts ascending, so the dense ids preserve the
            physical channel order the exact engine resolves channels in.
            """
            table = np.asarray(schedule.labels_at(slot), dtype=np.int64)
            uniq, inverse = np.unique(table, return_inverse=True)
            return inverse.reshape(n, c), len(uniq)

        table, num_channels = table_for(self.slot)
        replay = self.rng_mode == "replay"
        if replay:
            rng_choice = self.rng.choice
            streams = [e["rng"].getrandbits for e in exports]
            np_rng = None

            def below(draws: list[Any], bound: int) -> Any:
                """``randrange(bound)`` on each of *draws*' streams, batched.

                ``randrange`` on a plain ``random.Random`` draws
                ``getrandbits`` of the bound's bit length, redrawn while
                ``>= bound``.  Each stream is one node's, so drawing
                stream after stream leaves every stream where per-node
                ``randrange`` would.  The redraws stay inline in one
                Python loop: numpy redraw rounds cost more in fixed
                per-round overhead than they save (docs/performance.md).
                """
                bits = bound.bit_length()
                values = []
                append = values.append
                for getrandbits in draws:
                    value = getrandbits(bits)
                    while value >= bound:
                        value = getrandbits(bits)
                    append(value)
                return np.array(values, dtype=np.int64)

            def draw(nodes: Any, bounds: Any) -> Any:
                """Per-node bounds: one :func:`below` batch per distinct bound."""
                values = np.empty(nodes.size, dtype=np.int64)
                for bound in np.unique(bounds).tolist():
                    at = np.flatnonzero(bounds == bound)
                    at_streams = [streams[node] for node in nodes[at].tolist()]
                    values[at] = below(at_streams, bound)
                return values

        else:
            if self._np_rng is None:
                self._np_rng = np.random.default_rng(
                    derive_seed(self._seed, "vector-engine")
                )
            np_rng = self._np_rng

            def draw(nodes: Any, bounds: Any) -> Any:
                return np_rng.integers(0, bounds)

        track = self._contention is not None
        contention_chunks: list[Any] = []
        deliveries = 0
        wasted_listens = 0

        if stop_when is None:
            # Eligible populations never self-terminate, so the
            # engine's default "all protocols done" condition is
            # constantly false and the run consumes the whole budget,
            # like the exact engine.
            def done() -> bool:
                return False

        else:
            done = program.done

        labels = None
        executed = 0
        completed = done()
        while not completed and executed < max_slots:
            slot = self.slot
            if not static:
                table, num_channels = table_for(slot)
            if replay:
                labels = below(streams, c)
            else:
                labels = np_rng.integers(0, c, size=n)
            channels = table[rows, labels]
            sending = program.senders(draw)
            broadcaster_nodes = rows[sending]
            broadcaster_channels = channels[sending]
            counts = np.bincount(broadcaster_channels, minlength=num_channels)
            winner_node = np.full(num_channels, -1, dtype=np.int64)
            if broadcaster_nodes.size:
                if replay:
                    # A lone broadcaster wins its channel with no draw;
                    # the scatter leaves an arbitrary one on contended
                    # channels, which are then resolved in ascending
                    # channel order with one draw each, matching the
                    # exact engine's RNG stream draw for draw.  The
                    # stable sort keeps each group in ascending node
                    # order, matching its envelope list.
                    winner_node[broadcaster_channels] = broadcaster_nodes
                    contended = np.flatnonzero(counts > 1)
                    if contended.size:
                        sizes = counts[contended]
                        in_contest = counts[broadcaster_channels] > 1
                        contest_channels = broadcaster_channels[in_contest]
                        grouped = broadcaster_nodes[in_contest][
                            np.argsort(contest_channels, kind="stable")
                        ]
                        offsets = [rng_choice(range(size)) for size in sizes.tolist()]
                        winner_node[contended] = grouped[
                            np.cumsum(sizes) - sizes + offsets
                        ]
                else:
                    # Uniform winner per channel: iid keys, scatter-min.
                    keys = np_rng.random(broadcaster_nodes.size)
                    channel_min = np.full(num_channels, np.inf)
                    np.minimum.at(channel_min, broadcaster_channels, keys)
                    is_winner = keys <= channel_min[broadcaster_channels]
                    winner_node[broadcaster_channels[is_winner]] = (
                        broadcaster_nodes[is_winner]
                    )
            has_winner = counts > 0
            heard = has_winner[channels]
            listening = ~sending
            delivered = heard & listening
            if track:
                contention_chunks.append(counts[has_winner])
                heard_count = int(np.count_nonzero(delivered))
                deliveries += heard_count
                wasted_listens += int(np.count_nonzero(listening)) - heard_count
            program.receive(slot, labels, channels, winner_node, heard, delivered)
            self.slot = slot + 1
            executed += 1
            completed = done()

        for protocol, state in zip(self.protocols, program.states(labels)):
            protocol.vector_import(state)
        if contention_chunks:
            self._contention = np.concatenate(contention_chunks).tolist()
        self._deliveries = deliveries
        self._wasted_listens = wasted_listens
        return executed, completed
