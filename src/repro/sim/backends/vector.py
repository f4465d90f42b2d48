"""The vector backends: an engine with a numpy columnar kernel.

:class:`VectorEngine` is an :class:`~repro.sim.engine.Engine` that adds
one kernel.  Instead of driving ``n`` Python protocol objects slot by
slot, the columnar kernel represents the population as arrays —
per-slot channel choices, a broadcaster mask, grouped single-winner
collision resolution, and informed-set updates as boolean array ops —
so the per-slot cost is a fixed number of numpy kernels over
``n``-element arrays rather than ``~n`` Python-level calls.  On
uninstrumented ``n >= 10^4`` COGCAST runs this is well over an order of
magnitude faster than the exact engine's fast path
(``benchmarks/bench_backends.py``).

Equivalence contract (see ``docs/performance.md`` "Backends"):

- **Tier A (bit-identical).**  With ``rng_mode="replay"`` the kernel
  consumes every stream exactly as the exact engine does.  Each slot
  it takes the draws ``randrange(c)`` makes from every node's own
  :class:`random.Random` — ``getrandbits`` of ``c``'s bit length,
  redrawn while ``>= c`` — batched across nodes: one pass for all
  nodes, then redraws for only the rejected ones.  The order across
  nodes is free because each stream is one node's, so a population
  whose streams are not distinct plain ``random.Random`` objects takes
  the exact kernels.  From the engine's collision stream it takes one
  ``choice`` per contended channel, in ascending physical channel
  order; a lone broadcaster wins with no draw.  Final protocol states,
  ``RunResult``, and both RNG stream states are equal draw for draw —
  this mode exists to prove the columnar grouping/collision/delivery
  machinery exact, and it reuses the fast path's eligibility
  discipline (exact types only).
- **Tier B (statistical).**  The default ``rng_mode="numpy"`` draws
  from a :class:`numpy.random.Generator` seeded via the repository's
  seed discipline (``derive_seed(seed, "vector-engine")``).  Runs are
  deterministic per seed but follow a different stream than the exact
  engine, so equivalence is established statistically:
  ``tests/test_backends.py`` cross-validates completion-slot and
  collision-rate distributions against the exact backend with
  bootstrap CIs and checks the epidemic invariants on the results.

The engine only vectorizes populations whose protocols advertise a
columnar program via the duck-typed ``vector_kind`` /
``vector_export`` / ``vector_import`` contract (today:
``"epidemic-broadcast"``, i.e. COGCAST — every node picks a uniform
random label each slot, informed nodes broadcast one message,
uninformed nodes listen and become informed on any reception, and no
node ever terminates on its own).  Any run it cannot prove equivalent
— jammers, non-default collision models, event sinks (traces, spans,
the mediator-uniqueness watchdog), unknown protocols, unknown stop
conditions — falls back transparently: the same engine runs it on the
exact kernels (``Engine.run``), with one slot clock and one collision
stream across every run, so ``backend="vector"`` is always safe to
request.  ``run(totals=True)`` keeps the columnar path: it keeps the
same :class:`~repro.sim.engine.RunTotals` as the exact kernels and
returns them through the engine's one run end.  So do the run-end
watchdogs (:mod:`repro.obs.watchdog`), which read the protocols'
state after :meth:`~VectorEngine.run` imports it back.

numpy itself is imported lazily: constructing the engine without
numpy installed raises one actionable error instead of an ImportError
at package import time.  ``build_engine(backend="vector")`` builds it
with ``rng_mode="numpy"``, and ``backend="vector-replay"`` with
``rng_mode="replay"``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.backends.base import BackendUnavailableError, vector_contract
from repro.sim.channels import DynamicSchedule, Network, StaticSchedule
from repro.sim.engine import Engine, RunResult
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.protocol import Protocol

#: The columnar programs this engine implements, by ``vector_kind``.
VECTOR_KINDS = ("epidemic-broadcast",)

#: Sentinel for "never informed" in the columnar slot array (``-1`` is
#: taken: it is the exported value for "informed before slot 0").
_NEVER = -2

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
        reason, exports = self._vector_ineligible_reason(stop_when)
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
        executed, completed = self._run_vector(max_slots, stop_when, exports)
        return self._end_run(max_slots, executed, completed, require_completion)

    # -- eligibility ----------------------------------------------------

    def _vector_ineligible_reason(
        self, stop_when: Any
    ) -> tuple[str | None, list[dict[str, Any]]]:
        """Why this run must take the exact kernels (``None`` = columnar).

        Starts with the checks the fast kernel makes too
        (:meth:`Engine._fast_ineligible_reason`), then adds the
        columnar kernel's own, keeping the fast path's discipline of
        exact types only.  Unknown protocols or stop conditions are not
        an error — the exact kernels handle everything — so requesting
        the vector backend never changes observable behavior, only speed.

        Also returns the protocols' ``vector_export()`` snapshots, which
        the last three checks read and the kernel starts from (empty when
        an earlier check already failed).  Every check runs before any
        state mutates, so falling back is always safe.
        """
        reason = self._fast_ineligible_reason()
        if reason is not None:
            return reason, []
        if type(self.network.schedule) not in (StaticSchedule, DynamicSchedule):
            return "unknown schedule type", []
        if stop_when is not None and (
            getattr(stop_when, "vector_condition", None) != "all_informed"
        ):
            return "stop condition has no columnar form", []
        for protocol in self.protocols:
            if type(protocol).__dict__.get("vector_kind") not in VECTOR_KINDS:
                return "protocol has no columnar program", []
        exports = [protocol.vector_export() for protocol in self.protocols]
        contract = vector_contract("epidemic-broadcast")
        if contract is not None:
            for export in exports:
                # A protocol whose export omits fields the kernel
                # materializes is not an error either: name the missing
                # fields so the gap is visible.
                missing = contract.missing_fields(export)
                if missing:
                    return (
                        "vector export missing contract fields: " + ", ".join(missing),
                        [],
                    )
        if any(export.get("keep_log") for export in exports):
            # Logs are per-slot Python records; populations that keep
            # them (COGCOMP phase one) take the exact engine.
            return "protocol keeps a per-slot log", []
        if self.rng_mode == "replay":
            # The batched label draws reproduce randrange only on
            # distinct plain random.Random streams.
            streams = [export["rng"] for export in exports]
            plain = all(type(stream) is random.Random for stream in streams)
            if not plain or len(set(streams)) < len(streams):
                return "node streams are not distinct random.Random instances", []
        return None, exports

    # -- the columnar kernel --------------------------------------------

    def _run_vector(
        self, max_slots: int, stop_when: Any, exports: list[dict[str, Any]]
    ) -> tuple[int, bool]:
        """Run the ``epidemic-broadcast`` columnar program from *exports*.

        Effects: rng.
        """
        np = _numpy()
        network = self.network
        n = network.num_nodes
        c = network.channels_per_node
        protocols = self.protocols

        informed = np.array([bool(e["informed"]) for e in exports], dtype=bool)
        messages: list[Any] = [e["message"] for e in exports]
        parent = np.array(
            [-1 if e["parent"] is None else e["parent"] for e in exports],
            dtype=np.int64,
        )
        informed_slot = np.array(
            [
                _NEVER if e["informed_slot"] is None else e["informed_slot"]
                for e in exports
            ],
            dtype=np.int64,
        )
        informed_label = np.array(
            [
                -1 if e["informed_label"] is None else e["informed_label"]
                for e in exports
            ],
            dtype=np.int64,
        )

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
            label_bits = c.bit_length()
            label_draws = [e["rng"].getrandbits for e in exports]
            np_rng = None
        else:
            if self._np_rng is None:
                self._np_rng = np.random.default_rng(
                    derive_seed(self._seed, "vector-engine")
                )
            np_rng = self._np_rng

        track = self._contention is not None
        contention_chunks: list[Any] = []
        deliveries = 0
        wasted_listens = 0

        if stop_when is None:
            # Eligible populations never self-terminate (the
            # epidemic-broadcast contract), so the engine's default
            # "all protocols done" condition is constantly false and
            # the run consumes the whole budget, like the exact engine.
            def condition() -> bool:
                return False

        else:

            def condition() -> bool:
                return bool(informed.all())

        labels = None
        executed = 0
        completed = condition()
        while not completed and executed < max_slots:
            slot = self.slot
            if not static:
                table, num_channels = table_for(slot)
            if replay:
                # randrange(c) on a plain random.Random: getrandbits of
                # c's bit length, redrawn while >= c.  Each stream is
                # one node's, so drawing node by node per round leaves
                # every stream where per-node randrange would.
                labels = np.array(
                    [draw(label_bits) for draw in label_draws], dtype=np.int64
                )
                redraw = np.flatnonzero(labels >= c)
                while redraw.size:
                    labels[redraw] = [
                        label_draws[node](label_bits) for node in redraw.tolist()
                    ]
                    redraw = redraw[labels[redraw] >= c]
            else:
                labels = np_rng.integers(0, c, size=n)
            channels = table[rows, labels]
            broadcaster_nodes = rows[informed]
            broadcaster_channels = channels[informed]
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
            listeners = ~informed
            newly = heard & listeners
            new_nodes = np.flatnonzero(newly)
            if track:
                contention_chunks.append(counts[has_winner])
                deliveries += int(new_nodes.size)
                wasted_listens += int(listeners.sum()) - int(new_nodes.size)
            if new_nodes.size:
                winners = winner_node[channels[new_nodes]]
                parent[new_nodes] = winners
                informed_slot[new_nodes] = slot
                informed_label[new_nodes] = labels[new_nodes]
                for node, source in zip(new_nodes.tolist(), winners.tolist()):
                    messages[node] = messages[source]
                informed[new_nodes] = True
            self.slot = slot + 1
            executed += 1
            completed = condition()

        informed_list = informed.tolist()
        parent_list = parent.tolist()
        slot_list = informed_slot.tolist()
        label_list = informed_label.tolist()
        current_labels = (
            [export["current_label"] for export in exports]
            if labels is None
            else labels.tolist()
        )
        for node, protocol in enumerate(protocols):
            protocol.vector_import(
                {
                    "informed": informed_list[node],
                    "message": messages[node],
                    "parent": None if parent_list[node] < 0 else parent_list[node],
                    "informed_slot": (
                        None if slot_list[node] == _NEVER else slot_list[node]
                    ),
                    "informed_label": (
                        None if label_list[node] < 0 else label_list[node]
                    ),
                    "current_label": current_labels[node],
                }
            )
        if contention_chunks:
            self._contention = np.concatenate(contention_chunks).tolist()
        self._deliveries = deliveries
        self._wasted_listens = wasted_listens
        return executed, completed
