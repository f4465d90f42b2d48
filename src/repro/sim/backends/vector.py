"""The vector backend: a numpy columnar engine for whole populations.

Instead of driving ``n`` Python protocol objects slot by slot, the
vector engine represents the population as arrays — per-slot channel
choices, a broadcaster mask, grouped single-winner collision
resolution, and informed-set updates as boolean array ops — so the
per-slot cost is a fixed number of numpy kernels over ``n``-element
arrays rather than ``~n`` Python-level calls.  On uninstrumented
``n >= 10^4`` COGCAST runs this is well over an order of magnitude
faster than the exact engine's fast path (``benchmarks/bench_backends.py``).

Equivalence contract (see ``docs/performance.md`` "Backends"):

- **Tier A (bit-identical).**  With ``rng_mode="replay"`` the kernel
  draws every random number from the same streams, in the same order,
  as the exact engine: one ``randrange(c)`` per node per slot from the
  node's own :class:`random.Random`, and one ``choice`` per contended
  channel (ascending physical channel order) from the engine's
  collision stream.  Final protocol states, ``RunResult``, and both
  RNG stream states are equal draw for draw — this mode exists to
  prove the columnar grouping/collision/delivery machinery exact, and
  it reuses the fast path's eligibility discipline (exact types only).
- **Tier B (statistical).**  The default ``rng_mode="numpy"`` draws
  from a :class:`numpy.random.Generator` seeded via the repository's
  seed discipline (``derive_seed(seed, "vector-engine")``).  Runs are
  deterministic per seed but follow a different stream than the exact
  engine, so equivalence is established statistically:
  ``tests/test_backends.py`` cross-validates completion-slot and
  collision-rate distributions against the exact backend with
  bootstrap CIs and checks the PR-4 watchdog invariants on the results.

The engine only vectorizes populations whose protocols advertise a
columnar program via the duck-typed ``vector_kind`` /
``vector_export`` / ``vector_import`` contract (today:
``"epidemic-broadcast"``, i.e. COGCAST — every node picks a uniform
random label each slot, informed nodes broadcast one message,
uninformed nodes listen and become informed on any reception, and no
node ever terminates on its own).  Any configuration it cannot prove
equivalent — jammers, non-default collision models, traces, per-event
probes, unknown protocols, unknown stop conditions — falls back to the
exact engine transparently, so ``backend="vector"`` is always safe to
request.  Probes that take run totals
(:func:`repro.sim.engine.takes_run_totals`, e.g.
:class:`repro.obs.metrics.MetricsProbe`) keep working on the columnar
path: it feeds them once per run through ``on_run_totals``, as the
exact engine's fast kernel does.

numpy itself is imported lazily: constructing the backend without
numpy installed raises one actionable error instead of an ImportError
at package import time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.sim.adversary import Jammer, NullJammer
from repro.sim.backends.base import (
    BackendUnavailableError,
    EngineBackend,
    numpy_available,
    vector_contract,
)
from repro.sim.channels import DynamicSchedule, Network, StaticSchedule
from repro.sim.collision import CollisionModel, SingleWinnerCollision
from repro.sim.engine import Engine, RunResult, takes_run_totals
from repro.sim.rng import derive_rng, derive_seed
from repro.types import SimulationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.protocol import Protocol
    from repro.sim.trace import EventTrace

#: The columnar programs this engine implements, by ``vector_kind``.
VECTOR_KINDS = ("epidemic-broadcast",)

#: Sentinel for "never informed" in the columnar slot array (``-1`` is
#: taken: it is the exported value for "informed before slot 0").
_NEVER = -2

def _numpy():
    """Import numpy on first use, with a one-line actionable error.

    Called once per run, not per slot; repeat imports are a
    ``sys.modules`` dict hit, so no extra caching layer is needed.
    """
    try:
        import numpy
    except ImportError as exc:
        raise BackendUnavailableError(
            "the vector backend requires numpy: install the perf extra "
            "(pip install 'repro[perf]') or select backend='exact'"
        ) from exc
    return numpy


class VectorEngine:
    """Engine-like executor that runs vectorizable populations columnar.

    Exposes the same observable surface as
    :class:`repro.sim.engine.Engine` (``protocols``, ``network``,
    ``rng``, ``run``, ``all_done``, ``fast_path_engaged``) so runners
    never branch on the backend.  Whether the most recent ``run`` used
    the columnar kernel is recorded in :attr:`vector_engaged`; when it
    fell back, :attr:`vector_fallback_reason` says why.

    Parameters mirror :class:`~repro.sim.engine.Engine`, plus:

    rng_mode:
        ``"numpy"`` (default) draws channel choices and collision
        winners from a seeded :class:`numpy.random.Generator` — the
        fast, Tier-B mode.  ``"replay"`` draws from the exact engine's
        Python streams in the exact engine's order, producing
        bit-identical runs (Tier A) at reduced speedup.
    """

    def __init__(
        self,
        network: Network,
        protocols: "Sequence[Protocol]",
        *,
        collision: CollisionModel | None = None,
        seed: int = 0,
        trace: "EventTrace | None" = None,
        jammer: Jammer | None = None,
        probe: Any = None,
        fast_path: bool = True,
        rng_mode: str = "numpy",
    ) -> None:
        if len(protocols) != network.num_nodes:
            raise ValueError(
                f"{len(protocols)} protocols for {network.num_nodes} nodes"
            )
        if rng_mode not in ("numpy", "replay"):
            raise ValueError(f"rng_mode must be 'numpy' or 'replay', got {rng_mode!r}")
        self.network = network
        self.protocols = list(protocols)
        self.collision = collision or SingleWinnerCollision()
        self.rng = derive_rng(seed, "engine-collision")
        self.trace = trace
        self.jammer = jammer or NullJammer()
        self.fast_path = fast_path
        self.rng_mode = rng_mode
        self.slot = 0
        self.fast_path_engaged = False
        #: Whether the most recent :meth:`run` used the columnar kernel.
        self.vector_engaged = False
        #: Why the most recent :meth:`run` fell back (``None`` = engaged).
        self.vector_fallback_reason: str | None = None
        self._seed = seed
        self._np_rng = None
        self._exact: Engine | None = None
        self._vector_run_active = False
        self._probe = None
        self.probe = probe

    # -- engine-like surface -------------------------------------------

    @property
    def probe(self) -> Any:
        """The attached streaming probe, if any."""
        return self._probe

    @probe.setter
    def probe(self, probe: Any) -> None:
        if probe is not None and self._vector_run_active:
            raise SimulationError(
                "cannot attach a probe while a vector run is in flight; "
                "attach it before run() or construct the engine with it"
            )
        self._probe = probe
        if self._exact is not None:
            self._exact.probe = probe

    @property
    def all_done(self) -> bool:
        return all(protocol.done for protocol in self.protocols)

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Any = None,
        require_completion: bool = False,
    ) -> RunResult:
        """Run columnar when provably equivalent; otherwise exactly.

        Effects: rng.
        """
        reason, exports = self._vector_ineligible_reason(stop_when)
        self.vector_fallback_reason = reason
        self.vector_engaged = reason is None
        if reason is not None:
            engine = self._exact_engine()
            result = engine.run(
                max_slots,
                stop_when=stop_when,
                require_completion=require_completion,
            )
            self.fast_path_engaged = engine.fast_path_engaged
            self.slot = engine.slot
            return result
        self.fast_path_engaged = False
        probe = self._probe
        if probe is not None:
            probe.on_run_start(
                num_nodes=self.network.num_nodes,
                num_channels=self.network.channels_per_node,
                overlap=self.network.overlap,
            )
        self._vector_run_active = True
        try:
            executed, completed = self._run_vector(max_slots, stop_when, exports)
        finally:
            self._vector_run_active = False
        if probe is not None:
            probe.on_run_end(executed)
        if require_completion and not completed:
            raise SimulationError(
                f"run did not complete within {max_slots} slots"
            )
        return RunResult(
            slots=executed, completed=completed, all_done=self.all_done
        )

    # -- eligibility ----------------------------------------------------

    def _vector_ineligible_reason(
        self, stop_when: Any
    ) -> tuple[str | None, list[dict[str, Any]]]:
        """Why this run must take the exact engine (``None`` = columnar).

        Mirrors the fast path's discipline: exact types only, because a
        subclass overriding any hook would change semantics the kernel
        hard-codes.  Unknown protocols or stop conditions are not an
        error — the exact engine handles everything — so requesting the
        vector backend never changes observable behavior, only speed.

        Also returns the protocols' ``vector_export()`` snapshots, which
        the last two checks read and the kernel starts from (empty when
        an earlier check already failed).  Every check runs before any
        state mutates, so falling back is always safe.
        """
        if self.trace is not None:
            return "event trace attached", []
        probe = self._probe
        if probe is not None and not takes_run_totals(probe):
            return "probe without aggregate (on_run_totals) support", []
        if type(self.jammer) is not NullJammer:
            return "jamming adversary attached", []
        if type(self.collision) is not SingleWinnerCollision:
            return "non-default collision model", []
        if type(self.network) is not Network:
            return "network subclass", []
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
        return None, exports

    def _exact_engine(self) -> Engine:
        """The lazily built fallback engine, sharing the collision stream."""
        if self._exact is None:
            self._exact = Engine(
                self.network,
                self.protocols,
                collision=self.collision,
                seed=self._seed,
                trace=self.trace,
                jammer=self.jammer,
                probe=self._probe,
                fast_path=self.fast_path,
            )
            # One collision stream across both kernels: a replay-mode
            # vector run followed by a fallback run keeps drawing from
            # where the previous run stopped, exactly like one Engine.
            self._exact.rng = self.rng
        return self._exact

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
            label_draws = [e["rng"].randrange for e in exports]
            np_rng = None
        else:
            if self._np_rng is None:
                self._np_rng = np.random.default_rng(
                    derive_seed(self._seed, "vector-engine")
                )
            np_rng = self._np_rng

        probe = self._probe
        track = probe is not None
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
                labels = np.fromiter(
                    (draw(c) for draw in label_draws), dtype=np.int64, count=n
                )
            else:
                labels = np_rng.integers(0, c, size=n)
            channels = table[rows, labels]
            broadcaster_nodes = rows[informed]
            broadcaster_channels = channels[informed]
            counts = np.bincount(broadcaster_channels, minlength=num_channels)
            winner_node = np.full(num_channels, -1, dtype=np.int64)
            if broadcaster_nodes.size:
                if replay:
                    # Contended channels resolve in ascending channel
                    # order with one draw each, matching the exact
                    # engine's RNG stream draw for draw; the stable
                    # sort keeps each group in ascending node order,
                    # matching its envelope list.
                    order = np.argsort(broadcaster_channels, kind="stable")
                    sorted_channels = broadcaster_channels[order]
                    sorted_nodes = broadcaster_nodes[order]
                    starts = np.flatnonzero(
                        np.r_[True, sorted_channels[1:] != sorted_channels[:-1]]
                    )
                    ends = np.r_[starts[1:], sorted_channels.size]
                    for start, end in zip(starts.tolist(), ends.tolist()):
                        size = end - start
                        offset = 0 if size == 1 else rng_choice(range(size))
                        winner_node[sorted_channels[start]] = sorted_nodes[
                            start + offset
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
        if track:
            contention = (
                np.concatenate(contention_chunks).tolist()
                if contention_chunks
                else []
            )
            probe.on_run_totals(
                slots=executed,
                contention=contention,
                deliveries=deliveries,
                wasted_listens=wasted_listens,
            )
        return executed, completed


class VectorBackend(EngineBackend):
    """Build a :class:`VectorEngine` (numpy required at build time)."""

    name = "vector"

    def __init__(self, rng_mode: str = "numpy") -> None:
        if rng_mode not in ("numpy", "replay"):
            raise ValueError(
                f"rng_mode must be 'numpy' or 'replay', got {rng_mode!r}"
            )
        self.rng_mode = rng_mode
        if rng_mode == "replay":
            self.name = "vector-replay"

    def unavailable_reason(self) -> str | None:
        if numpy_available():
            return None
        return "numpy is not installed (pip install 'repro[perf]')"

    def build(
        self,
        network: Network,
        protocols: "Sequence[Protocol]",
        *,
        collision: CollisionModel | None = None,
        seed: int = 0,
        trace: "EventTrace | None" = None,
        jammer: Jammer | None = None,
        probe: Any = None,
        fast_path: bool = True,
    ) -> VectorEngine:
        _numpy()
        return VectorEngine(
            network,
            protocols,
            collision=collision,
            seed=seed,
            trace=trace,
            jammer=jammer,
            probe=probe,
            fast_path=fast_path,
            rng_mode=self.rng_mode,
        )
