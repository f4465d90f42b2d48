"""The benchmark's workloads: their units, generated inputs and output checks.

A workload is a list of units (one experiment, one engine run, one
ingest or one CLI verb) that the worker repeats round-robin.  Each
workload imports repro in :meth:`Workload.import_modules` and builds
every input from the seed in :meth:`Workload.build_inputs`; both count
as set-up.  Repro callables are always reached through their module
(``self.runners.run_local_broadcast``), so traced mode's wrappers are
picked up at call time.

Why these three (see README.md for the per-layer predictions):

- ``reproduce`` is what users run (``repro run all --fast``): the fast
  exact kernel, experiments and analysis do the work; the columnar
  kernel and the obs layers do none.
- ``scale`` is a few large runs where per-slot kernel throughput and
  per-node engine construction do nearly all the work.
- ``telemetry`` is the only workload where the obs layers (records,
  sink, store, query, diff) do most of the work.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

#: The checkout this benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent

#: The seed the stored table digests were rendered at.
DIGEST_SEED = 0

#: Table digests of every experiment at :data:`DIGEST_SEED` (``fast=True``).
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Hash seed of every child interpreter the benchmark starts.
CHILD_HASH_SEED = "0"


@dataclass(frozen=True)
class Unit:
    """One repeatable operation of a workload."""

    name: str
    call: Callable[[], Any]
    #: Engine backend the unit's runs request (``None``: not an engine unit).
    backend: str | None = None


@dataclass(frozen=True)
class VerbResult:
    """Exit status and output of one ``repro obs`` verb run as a child."""

    code: int
    stdout: str
    stderr: str
    #: Dumped spans of a traced child (``None`` when untraced).
    span_file: str | None = None


def child_env() -> dict[str, str]:
    """Environment of child interpreters: the checkout's ``src`` first, pinned hash seed."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    return env


def digest(text: str) -> str:
    """SHA-256 hex digest of a rendered table."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Base class: units, set-up and checks of one workload."""

    name = ""

    def __init__(self, *, seed: int, size: str, scratch: Path) -> None:
        self.seed = seed
        self.size = size
        self.scratch = scratch
        #: Set by the worker for traced passes (``tracing.Tracer``).
        self.tracer: Any = None
        self.pass_index = 0
        self._first: dict[str, Any] = {}

    def import_modules(self) -> None:
        """Import what the units call (timed as ``setup.import_s``)."""

    def build_inputs(self) -> None:
        """Generate every input from the seed (timed as ``setup.inputs_s``)."""

    def units(self) -> list[Unit]:
        """The units of one pass, in order."""
        raise NotImplementedError

    def begin_pass(self, index: int) -> None:
        """Prepare pass *index* (untimed)."""
        self.pass_index = index

    def check(self, unit: Unit, result: Any) -> list[str]:
        """Problems with one unit's output (empty when correct)."""
        return []

    def record_paths(self, index: int) -> Counter | None:
        """Execution paths that pass *index*'s telemetry records report."""
        return None

    def bytes_written(self) -> int:
        """Telemetry bytes the current pass wrote."""
        return 0

    def report(self, medians: Mapping[str, float]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures from per-unit median times."""
        return {}

    def work_scale(self, unit_name: str) -> float:
        """Factor bringing a unit's time to its nominal amount of work."""
        return 1.0

    def same_as_first(self, key: str, value: Any, what: str) -> list[str]:
        """Check that *value* equals the first value seen under *key*."""
        first = self._first.setdefault(key, value)
        if value != first:
            return [f"{key}: {what} differs from its first repeat"]
        return []


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------


class Reproduce(Workload):
    """Every registered experiment at ``fast=True``, one experiment per unit.

    A unit renders its experiment's table at the run's seed, as
    ``repro run <id> --fast --seed S`` does.  E04 and E06 also render it
    at two more seeds derived from it: their baselines' completion times
    are heavy-tailed, so one seed's table took from 0.36 s to 0.52 s to
    build across seeds while the rest of the suite moved by about 1%.
    """

    name = "reproduce"
    #: Seeds per unit, where more than one.
    SEEDS = {"E04": 3, "E06": 3}
    #: Experiments of the smoke size (the quickest ones).
    SMOKE = ("E07", "E11", "E16", "E21")

    def import_modules(self) -> None:
        self.registry = importlib.import_module("repro.experiments.registry")
        self.rng = importlib.import_module("repro.sim.rng")
        self.specs = self.registry.load_all()

    def build_inputs(self) -> None:
        #: Table digests to match, at :data:`DIGEST_SEED` only.
        self.expected: dict[str, list[str]] | None = None
        if self.seed == DIGEST_SEED:
            with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
                self.expected = json.load(handle)["tables"]
        ids = sorted(self.specs) if self.size == "full" else list(self.SMOKE)
        self._units = [Unit(eid, self._runner(eid)) for eid in ids]

    def units(self) -> list[Unit]:
        return self._units

    def seeds(self, experiment_id: str) -> list[int]:
        """The seeds a unit renders its experiment at: the run's seed first."""
        extra = range(1, self.SEEDS.get(experiment_id, 1))
        return [self.seed] + [
            self.rng.derive_seed(self.seed, "perfbench-reproduce", index) for index in extra
        ]

    def _runner(self, experiment_id: str) -> Callable[[], list[str]]:
        spec = self.specs[experiment_id]
        seeds = self.seeds(experiment_id)

        def run_experiment() -> list[str]:
            # The same registry call `repro run all --fast` makes, plus
            # the rendering it prints.
            tracer = self.tracer
            tables = []
            for seed in seeds:
                span = tracer.begin("experiments") if tracer is not None else None
                try:
                    tables.append(spec.run(seed=seed, fast=True).render())
                finally:
                    if span is not None:
                        tracer.end(span)
            return tables

        return run_experiment

    def check(self, unit: Unit, result: Any) -> list[str]:
        rendered = [digest(table) for table in result]
        problems = self.same_as_first(unit.name, rendered, "rendered table")
        if self.expected is not None and self.expected.get(unit.name) != rendered:
            problems.append(f"{unit.name}: table digest does not match digests.json")
        return problems


# ----------------------------------------------------------------------
# scale
# ----------------------------------------------------------------------


class Scale(Workload):
    """Large runs on shared-core assignments (c=16, k=4) built in set-up.

    Completion slots vary with the seed (COGCAST at n=10^4 takes 27 to
    53 slots, 4-source gossip at n=128 takes 158 to 394), and so does a
    unit's time.  The units whose time follows their slot count run
    several independent inputs each, and ``wall_s`` scales every unit's
    time to its nominal node-slots (:data:`NOMINAL_SLOTS`), so the
    figure measures the kernels rather than the seed.
    """

    name = "scale"
    C, K = 16, 4
    GOSSIP_SOURCES = 4
    #: Typical slots of one run, per ``(kind, n)`` (means over seeds 1-8);
    #: the last five are the smoke size's.
    NOMINAL_SLOTS = {
        ("cogcast", 2_000): 33,
        ("cogcast", 10_000): 38,
        ("cogcast", 30_000): 39,
        ("cogcomp", 128): 700,
        ("gossip", 128): 250,
        ("cogcast", 120): 23,
        ("cogcast", 200): 25,
        ("cogcast", 300): 27,
        ("cogcomp", 24): 351,
        ("gossip", 24): 277,
    }
    #: Per size: ``(kind, n, backend, inputs per unit)``.  The first two
    #: are the replay-vs-exact pair, then the large replay run, the large
    #: numpy run, and the protocols the columnar kernel hands to exact.
    PLANS = {
        "full": (
            ("cogcast", 2_000, "exact", 2),
            ("cogcast", 2_000, "vector-replay", 2),
            ("cogcast", 10_000, "vector-replay", 2),
            ("cogcast", 30_000, "vector", 1),
            ("cogcomp", 128, "vector-replay", 1),
            ("gossip", 128, "vector-replay", 4),
        ),
        "smoke": (
            ("cogcast", 120, "exact", 2),
            ("cogcast", 120, "vector-replay", 2),
            ("cogcast", 200, "vector-replay", 1),
            ("cogcast", 300, "vector", 1),
            ("cogcomp", 24, "vector-replay", 1),
            ("gossip", 24, "vector-replay", 2),
        ),
    }

    def import_modules(self) -> None:
        self.generators = importlib.import_module("repro.assignment.generators")
        self.runners = importlib.import_module("repro.core.runners")
        self.aggregation = importlib.import_module("repro.core.aggregation")
        self.channels = importlib.import_module("repro.sim.channels")
        self.rng = importlib.import_module("repro.sim.rng")
        self.theory = importlib.import_module("repro.analysis.theory")

    def build_inputs(self) -> None:
        plan = self.PLANS[self.size]
        #: ``(n, input index) -> (assignment, run seed, values, sources)``.
        self.inputs: dict[tuple[int, int], tuple[Any, int, list[int], dict[int, str]]] = {}
        for n, count in sorted({(n, count) for _, n, _, count in plan}):
            for index in range(count):
                if (n, index) in self.inputs:
                    continue
                rng = self.rng.derive_rng(self.seed, "perfbench-scale", n, index)
                assignment = self.generators.shared_core(n, self.C, self.K, rng)
                assignment = assignment.shuffled_labels(rng)
                values = [rng.randrange(1, 1_000) for _ in range(n)]
                sources = {
                    node: f"message-{node}"
                    for node in sorted(rng.sample(range(n), min(self.GOSSIP_SOURCES, n)))
                }
                seed = self.rng.derive_seed(self.seed, "perfbench-scale-run", n, index)
                self.inputs[(n, index)] = (assignment, seed, values, sources)
        self._units = [
            Unit(f"{kind}-{n}-{backend}", self._runner(kind, n, backend, count), backend)
            for kind, n, backend, count in plan
        ]
        self.nominal = {
            f"{kind}-{n}-{backend}": n * count * self.NOMINAL_SLOTS[(kind, n)]
            for kind, n, backend, count in plan
        }
        self.node_slots: dict[str, int] = {}

    def units(self) -> list[Unit]:
        return self._units

    def _runner(self, kind: str, n: int, backend: str, count: int) -> Callable[[], list]:
        run = {"cogcast": self._cogcast, "cogcomp": self._cogcomp, "gossip": self._gossip}[kind]

        def run_inputs() -> list:
            return [run(n, index, backend) for index in range(count)]

        return run_inputs

    def _network(self, n: int, index: int) -> Any:
        # Validation is O(n^2 c); shared_core satisfies the invariants by
        # construction, so units time construction and the run only.
        return self.channels.Network.static(self.inputs[(n, index)][0], validate=False)

    def _cogcast(self, n: int, index: int, backend: str) -> Any:
        return self.runners.run_local_broadcast(
            self._network(n, index),
            seed=self.inputs[(n, index)][1],
            max_slots=self.theory.cogcast_slot_bound(n, self.C, self.K),
            backend=backend,
        )

    def _cogcomp(self, n: int, index: int, backend: str) -> Any:
        return self.runners.run_data_aggregation(
            self._network(n, index),
            self.inputs[(n, index)][2],
            seed=self.inputs[(n, index)][1],
            aggregator=self.aggregation.SumAggregator(),
            backend=backend,
        )

    def _gossip(self, n: int, index: int, backend: str) -> Any:
        sources = self.inputs[(n, index)][3]
        return self.runners.run_gossip(
            self._network(n, index),
            sources,
            seed=self.inputs[(n, index)][1],
            max_slots=self.theory.cogcast_slot_bound(n, self.C, self.K) * len(sources),
            backend=backend,
        )

    def check(self, unit: Unit, results: Any) -> list[str]:
        kind, n_text = unit.name.split("-")[:2]
        n = int(n_text)
        problems: list[str] = []
        fingerprints = []
        work = 0
        for index, result in enumerate(results):
            name = f"{unit.name}[{index}]"
            if kind == "cogcast":
                problems += self._check_broadcast(name, n, result)
                fingerprints.append((result.slots, result.parents, result.informed_slots))
                work += n * result.slots
            elif kind == "cogcomp":
                values = self.inputs[(n, index)][2]
                if not result.completed or result.failures:
                    problems.append(f"{name}: aggregation did not complete")
                elif result.value != float(sum(values)):
                    problems.append(f"{name}: aggregate {result.value} != {sum(values)}")
                fingerprints.append((result.value, result.total_slots, result.parents))
                work += n * result.total_slots
            else:
                sources = self.inputs[(n, index)][3]
                if not result.completed or min(result.coverage) != len(sources):
                    problems.append(f"{name}: gossip did not reach every node")
                fingerprints.append((result.slots, result.coverage))
                work += n * result.slots
        if unit.backend == "vector-replay" and f"{kind}-{n}-exact" in self._first:
            if fingerprints != self._first[f"{kind}-{n}-exact"]:
                problems.append(f"{unit.name}: differs from the exact run on the same inputs")
        self.node_slots[unit.name] = work
        return problems + self.same_as_first(unit.name, fingerprints, "result")

    @staticmethod
    def _check_broadcast(name: str, n: int, result: Any) -> list[str]:
        if not result.completed or result.informed_count != n:
            return [f"{name}: {result.informed_count}/{n} informed in {result.slots} slots"]
        slots = result.informed_slots
        for child, parent in enumerate(result.parents):
            if parent is not None and not slots[parent] < slots[child]:
                return [f"{name}: node {child} informed no later than its parent {parent}"]
        return []

    def work_scale(self, unit_name: str) -> float:
        # A unit that raised on every repeat was never checked, so its
        # work is unknown: its time stands as measured, and its failures
        # count in fail_ratio.
        if unit_name not in self.node_slots:
            return 1.0
        return self.nominal[unit_name] / self.node_slots[unit_name]

    def report(self, medians: Mapping[str, float]) -> dict[str, tuple[float, str]]:
        figures = {}
        for backend in ("exact", "vector-replay", "vector"):
            names = [unit.name for unit in self._units if unit.backend == backend]
            work = sum(self.node_slots.get(name, 0) for name in names)
            seconds = sum(medians[name] for name in names)
            figures[f"node_slots_per_s.{backend}"] = (work / seconds, "1/s")
        return figures


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------


class _Trial:
    """The campaign's measure: one instrumented COGCAST run per trial."""

    def __init__(self, workload: "Telemetry", sink: Any, registry: Any) -> None:
        self.workload = workload
        self.sink = sink
        self.registry = registry

    def measure(self, point: Mapping[str, Any], seed: int) -> float:
        """Build this trial's network from its seed and broadcast over it."""
        w = self.workload
        n = point["n"]
        rng = w.rng.derive_rng(seed, "perfbench-telemetry", n)
        network = w.channels.Network.static(
            w.generators.shared_core(n, w.C, w.K, rng).shuffled_labels(rng)
        )
        result = w.runners.run_local_broadcast(
            network,
            seed=seed,
            max_slots=w.theory.cogcast_slot_bound(n, w.C, w.K),
            metrics=self.registry,
            telemetry=self.sink,
        )
        return float(result.slots)


class Telemetry(Workload):
    """Write path (instrumented campaigns, two ingests) then read path (obs verbs)."""

    name = "telemetry"
    C, K = 8, 2
    BACKENDS = ("exact", "vector")
    SIZES = {
        "full": {"grid": (16, 32, 48), "trials": 60},
        "smoke": {"grid": (16,), "trials": 3},
    }
    #: ``(unit name, obs verb arguments)``; ``{store}``, ``{exact}``,
    #: ``{vector}`` and ``{previous}`` (last pass's exact shard) are
    #: filled in per pass.
    VERBS = (
        ("query-group", ("query", "{store}", "--group-by", "backend,n")),
        ("query-stat", ("query", "{store}", "--stat", "metric:sim_deliveries", "--group-by", "backend")),
        ("summary", ("summary", "--metrics", "{exact}", "{vector}")),
        ("diff", ("diff", "{previous}", "{exact}", "--json")),
    )

    def import_modules(self) -> None:
        self.generators = importlib.import_module("repro.assignment.generators")
        self.runners = importlib.import_module("repro.core.runners")
        self.campaign = importlib.import_module("repro.experiments.campaign")
        self.metrics = importlib.import_module("repro.obs.metrics")
        self.telemetry = importlib.import_module("repro.obs.telemetry")
        self.store = importlib.import_module("repro.obs.store")
        self.channels = importlib.import_module("repro.sim.channels")
        self.rng = importlib.import_module("repro.sim.rng")
        self.theory = importlib.import_module("repro.analysis.theory")

    def build_inputs(self) -> None:
        sizes = self.SIZES[self.size]
        self.grid = [{"n": n} for n in sizes["grid"]]
        self.trials = sizes["trials"]
        #: Records one campaign shard holds: a run per trial, a point each.
        self.shard_records = len(self.grid) * (self.trials + 1)
        self.env = child_env()
        self._paths: dict[int, Counter] = {}
        self._units = [
            *(Unit(f"campaign-{b}", self._campaign_runner(b), b) for b in self.BACKENDS),
            Unit("ingest", self._ingest),
            Unit("reingest", self._ingest),
            *(Unit(name, self._verb_runner(name, argv)) for name, argv in self.VERBS),
        ]

    def units(self) -> list[Unit]:
        return self._units

    def _pass_dir(self, index: int) -> Path:
        return self.scratch / f"pass-{index}"

    def _shard(self, backend: str, index: int | None = None) -> Path:
        return self._pass_dir(self.pass_index if index is None else index) / f"shard-{backend}.jsonl"

    def begin_pass(self, index: int) -> None:
        super().begin_pass(index)
        self._pass_dir(index).mkdir(parents=True)
        # Keep the previous pass for `obs diff`; drop the one before.
        shutil.rmtree(self._pass_dir(index - 2), ignore_errors=True)

    def _campaign_runner(self, backend: str) -> Callable[[], Any]:
        def run_campaign() -> Any:
            registry = self.metrics.MetricsRegistry()
            with self.telemetry.TelemetrySink(self._shard(backend)) as sink:
                trial = _Trial(self, sink, registry)
                results = self.campaign.Campaign(
                    name=f"perfbench-{backend}", measure=trial.measure
                ).run(
                    self.grid,
                    trials=self.trials,
                    seed=self.seed,
                    telemetry=sink,
                    metrics=registry,
                    backend=backend,
                    jobs=1,
                )
            return [point.samples for point in results]

        return run_campaign

    def _ingest(self) -> Any:
        store = self.store.RunStore(self._pass_dir(self.pass_index) / "store")
        return store.ingest([self._shard(backend) for backend in self.BACKENDS])

    def _verb_runner(self, name: str, argv: tuple[str, ...]) -> Callable[[], VerbResult]:
        def run_verb() -> VerbResult:
            previous = self._shard("exact", self.pass_index - 1)
            fields = {
                "store": str(self._pass_dir(self.pass_index) / "store"),
                "exact": str(self._shard("exact")),
                "vector": str(self._shard("vector")),
                "previous": str(previous if previous.exists() else self._shard("exact")),
            }
            args = [part.format(**fields) for part in argv]
            span_file = None
            if self.tracer is None:
                command = [sys.executable, "-m", "repro", "obs", *args]
            else:
                span_file = str(self._pass_dir(self.pass_index) / f"spans-{name}.json")
                verb = str(Path(__file__).resolve().parent / "verb.py")
                command = [sys.executable, verb, span_file, "obs", *args]
            done = subprocess.run(
                command, env=self.env, cwd=ROOT, capture_output=True, text=True, check=False
            )
            return VerbResult(done.returncode, done.stdout, done.stderr, span_file)

        return run_verb

    def check(self, unit: Unit, result: Any) -> list[str]:
        if unit.name.startswith("campaign-"):
            return self._check_shard(unit, result)
        if unit.name in ("ingest", "reingest"):
            expected = 2 * self.shard_records
            stored, deduplicated = (
                (expected, 0) if unit.name == "ingest" else (0, expected)
            )
            if (result.ingested, result.deduplicated) != (stored, deduplicated):
                return [
                    f"{unit.name}: stored {result.ingested} and deduplicated "
                    f"{result.deduplicated} of {expected} records"
                ]
            return []
        if result.code != 0:
            return [f"{unit.name}: exit {result.code}: {result.stderr.strip()[-300:]}"]
        return self.same_as_first(unit.name, self._untimed(unit.name, result.stdout), "output")

    def _check_shard(self, unit: Unit, samples: Any) -> list[str]:
        records = self.telemetry.read_telemetry(self._shard(unit.backend), strict=True)
        problems = self.same_as_first(unit.name, samples, "trial results")
        if len(records) != self.shard_records:
            problems.append(f"{unit.name}: {len(records)} records, expected {self.shard_records}")
        runs = [record for record in records if record["kind"] == "run"]
        if any(record["outcome"] != "completed" for record in runs):
            problems.append(f"{unit.name}: a run exhausted its slot budget")
        self._paths.setdefault(self.pass_index, Counter()).update(
            (r["backend"], r.get("fast_path"), r.get("vector_fallback_reason")) for r in runs
        )
        return problems

    @staticmethod
    def _untimed(verb: str, stdout: str) -> str:
        """*stdout* without the fields that carry timings or scratch paths."""
        if verb == "diff":
            report = json.loads(stdout)
            report.pop("a", None)
            report.pop("b", None)
            report["deltas"] = [d for d in report["deltas"] if d["class"] != "timing"]
            return json.dumps(report, sort_keys=True)
        return "\n".join(line for line in stdout.splitlines() if "elapsed" not in line)

    def record_paths(self, index: int) -> Counter | None:
        return self._paths.get(index)

    def bytes_written(self) -> int:
        return sum(self._shard(backend).stat().st_size for backend in self.BACKENDS)

    def report(self, medians: Mapping[str, float]) -> dict[str, tuple[float, str]]:
        write = ["campaign-exact", "campaign-vector", "ingest", "reingest"]
        records = 2 * self.shard_records
        return {
            "records_per_s": (records / sum(medians[name] for name in write), "1/s"),
            "read_s": (sum(medians[name] for name, _ in self.VERBS), "s"),
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Reproduce, Scale, Telemetry)
}
