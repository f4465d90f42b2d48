"""Tests for the model-soundness linter (``repro.lint``).

One positive (flagged) and one negative (clean) fixture per rule,
suppression-comment behaviour, the CLI exit-code contract, and the
self-check that the shipped sources pass every rule.
"""

from __future__ import annotations

import json
import os
import pathlib
import textwrap

import pytest

from repro.cli import main as repro_main
from repro.lint import Finding, all_rules, lint_file, lint_paths
from repro.lint.cli import main as lint_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def lint_snippet(tmp_path, source, *, name="snippet.py", select=None):
    """Write *source* under a repro-shaped tree and lint it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([str(path)], select=select)


def rules_hit(findings):
    return {finding.rule for finding in findings}


class TestR1AmbientRandomness:
    def test_module_level_random_call_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def pick():
                return random.random()
            """,
        )
        assert "R1" in rules_hit(findings)

    def test_aliased_import_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random as rnd

            def pick():
                return rnd.randint(0, 10)
            """,
        )
        assert "R1" in rules_hit(findings)

    def test_unseeded_random_instance_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            rng = random.Random()
            """,
        )
        assert "R1" in rules_hit(findings)

    def test_numpy_random_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise():
                return np.random.rand()
            """,
        )
        assert "R1" in rules_hit(findings)

    def test_seeded_random_instance_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
        )
        assert "R1" not in rules_hit(findings)

    def test_derived_stream_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.rng import derive_rng

            def make(root_seed):
                return derive_rng(root_seed, "node", 3)
            """,
        )
        assert not findings

    SEEDED_DEFAULT_RNG = """
        import numpy as np

        from repro.sim.rng import derive_seed

        def make(seed):
            return np.random.default_rng(derive_seed(seed, "vector-engine"))
        """

    def test_seeded_default_rng_in_backend_layer_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.SEEDED_DEFAULT_RNG, name="repro/sim/backends/vector.py"
        )
        assert "R1" not in rules_hit(findings)

    def test_seeded_default_rng_outside_backend_layer_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.SEEDED_DEFAULT_RNG, name="repro/analysis/noise.py"
        )
        assert "R1" in rules_hit(findings)

    def test_unseeded_default_rng_in_backend_layer_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            name="repro/sim/backends/vector.py",
        )
        assert "R1" in rules_hit(findings)

    def test_module_draw_in_backend_layer_still_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise(count):
                return np.random.rand(count)
            """,
            name="repro/sim/backends/vector.py",
        )
        assert "R1" in rules_hit(findings)

    def test_from_numpy_random_default_rng_in_backend_layer_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from numpy.random import default_rng

            from repro.sim.rng import derive_seed

            def make(seed):
                return default_rng(derive_seed(seed, "vector-engine"))
            """,
            name="repro/sim/backends/vector.py",
        )
        assert "R1" not in rules_hit(findings)

    def test_numpy_random_module_alias_argless_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy.random as npr

            def make():
                return npr.default_rng()
            """,
            name="repro/sim/backends/vector.py",
        )
        assert "R1" in rules_hit(findings)


class TestR2Wallclock:
    def test_time_time_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert "R2" in rules_hit(findings)

    def test_datetime_now_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert "R2" in rules_hit(findings)

    def test_os_urandom_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os

            def entropy():
                return os.urandom(8)
            """,
        )
        assert "R2" in rules_hit(findings)

    def test_perf_counter_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def measure():
                return time.perf_counter()
            """,
        )
        assert "R2" not in rules_hit(findings)


class TestR3SaltedHash:
    def test_builtin_hash_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def bucket(key, n):
                return hash(key) % n
            """,
        )
        assert "R3" in rules_hit(findings)

    def test_shadowed_hash_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def hash(value):
                '''A deterministic local hash.'''
                return value * 2654435761 % 2**32

            def bucket(key, n):
                return hash(key) % n
            """,
        )
        assert "R3" not in rules_hit(findings)

    def test_hashlib_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import hashlib

            def digest(data):
                return hashlib.blake2b(data).hexdigest()
            """,
        )
        assert not findings


class TestR4ProtocolIsolation:
    PROTO_WITH_ENGINE = """
        from repro.sim.engine import build_engine
        from repro.sim.protocol import NodeView, Protocol

        class Leaky(Protocol):
            def begin_slot(self, slot):
                return None

            def end_slot(self, slot, outcome):
                return None
        """

    def test_engine_import_in_protocol_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.PROTO_WITH_ENGINE, name="repro/core/leaky.py"
        )
        assert "R4" in rules_hit(findings)

    def test_same_module_outside_protocol_layer_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.PROTO_WITH_ENGINE, name="repro/sim/leaky.py"
        )
        assert "R4" not in rules_hit(findings)

    def test_runner_module_without_protocol_class_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.engine import build_engine

            def run(network, factory, seed):
                return build_engine(network, factory, seed=seed).run(100)
            """,
            name="repro/core/runners.py",
        )
        assert "R4" not in rules_hit(findings)

    def test_obs_import_in_protocol_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.metrics import count_run
            from repro.sim.protocol import Protocol

            class Watching(Protocol):
                def begin_slot(self, slot):
                    return None

                def end_slot(self, slot, outcome):
                    return None
            """,
            name="repro/core/watching.py",
        )
        assert "R4" in rules_hit(findings)

    def test_obs_import_in_runner_module_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.telemetry import run_record
            from repro.sim.engine import build_engine

            def run(network, factory, seed, sink):
                result = build_engine(network, factory, seed=seed).run(100)
                sink.emit(run_record(
                    protocol="p", seed=seed, network=network,
                    slots=result.slots, outcome="completed",
                ))
                return result
            """,
            name="repro/core/runners.py",
        )
        assert "R4" not in rules_hit(findings)

    def test_perf_import_in_protocol_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.perf import pmap_trials
            from repro.sim.protocol import Protocol

            class Fanning(Protocol):
                def begin_slot(self, slot):
                    return None

                def end_slot(self, slot, outcome):
                    return None
            """,
            name="repro/core/fanning.py",
        )
        assert "R4" in rules_hit(findings)

    def test_perf_import_in_harness_module_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.perf import pmap_trials

            def sweep(measure, seeds, jobs):
                return pmap_trials(measure, [(s,) for s in seeds], jobs=jobs)
            """,
            name="repro/experiments/sweep.py",
        )
        assert "R4" not in rules_hit(findings)

    def test_numpy_import_in_protocol_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            from repro.sim.protocol import Protocol

            class Columnar(Protocol):
                def begin_slot(self, slot):
                    return None

                def end_slot(self, slot, outcome):
                    return None
            """,
            name="repro/core/columnar.py",
        )
        assert "R4" in rules_hit(findings)

    def test_backends_import_in_protocol_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.backends import VectorEngine
            from repro.sim.protocol import Protocol

            class SelfVectorizing(Protocol):
                def begin_slot(self, slot):
                    return None

                def end_slot(self, slot, outcome):
                    return None
            """,
            name="repro/core/selfvec.py",
        )
        assert "R4" in rules_hit(findings)

    def test_backends_import_in_runner_module_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.backends import resolve_backend

            def run(network, factory, seed, backend=None):
                return resolve_backend(backend)
            """,
            name="repro/core/runners.py",
        )
        assert "R4" not in rules_hit(findings)

    def test_engine_internals_access_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.protocol import Protocol

            class Peeking(Protocol):
                def begin_slot(self, slot):
                    return self.view.engine._slot_counter

                def end_slot(self, slot, outcome):
                    return None
            """,
            name="repro/baselines/peeking.py",
        )
        assert "R4" in rules_hit(findings)

    def test_metrics_import_in_protocol_module_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.metrics import MetricsRegistry
            from repro.sim.protocol import Protocol

            class SelfCounting(Protocol):
                def begin_slot(self, slot):
                    return None

                def end_slot(self, slot, outcome):
                    return None
            """,
            name="repro/core/selfcounting.py",
        )
        assert "R4" in rules_hit(findings)

    def test_metrics_import_in_runner_module_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.metrics import count_run
            from repro.sim.engine import build_engine

            def run(network, factory, seed, registry):
                engine = build_engine(network, factory, seed=seed)
                result = engine.run(100, totals=True)
                count_run(registry, result, protocol="p")
                return result
            """,
            name="repro/core/runners.py",
        )
        assert "R4" not in rules_hit(findings)


class TestR5FrozenMutation:
    def test_object_setattr_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def tamper(view, rng):
                object.__setattr__(view, "rng", rng)
            """,
        )
        assert "R5" in rules_hit(findings)

    def test_post_init_self_pattern_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Record:
                '''A frozen record with a derived field.'''

                value: int

                def __post_init__(self):
                    object.__setattr__(self, "value", abs(self.value))
            """,
        )
        assert "R5" not in rules_hit(findings)

    def test_descriptor_writes_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.sim.actions import SlotOutcome

            def forget(outcome):
                type(outcome).__dict__["received"].__set__(outcome, None)

            clear_success = SlotOutcome.success.__delete__
            """,
        )
        assert [f.line for f in findings if f.rule == "R5"] == [5, 7]

    def test_descriptor_setters_in_slot_init_module_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def setters(cls, names):
                return [getattr(cls, name).__set__ for name in names]
            """,
            name="repro/types.py",
        )
        assert "R5" not in rules_hit(findings)


class TestR6UnorderedIteration:
    def test_for_over_set_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def drain(rng):
                pending = {3, 1, 2}
                for item in pending:
                    rng.random()
            """,
        )
        assert "R6" in rules_hit(findings)

    def test_list_of_set_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def first_k(edges, k):
                chosen = set(edges)
                return list(chosen)[:k]
            """,
        )
        assert "R6" in rules_hit(findings)

    def test_sorted_set_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def drain(rng):
                pending = {3, 1, 2}
                for item in sorted(pending):
                    rng.random()
            """,
        )
        assert "R6" not in rules_hit(findings)

    def test_order_insensitive_reduction_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def total(values):
                distinct = set(values)
                return sum(v for v in distinct)
            """,
        )
        assert "R6" not in rules_hit(findings)


class TestSuppression:
    def test_inline_disable_silences_one_rule(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def drain(rng):
                pending = {3, 1, 2}
                for item in pending:  # lint: disable=R6
                    rng.random()
            """,
        )
        assert "R6" not in rules_hit(findings)

    def test_disable_wrong_rule_still_flags(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def drain(rng):
                pending = {3, 1, 2}
                for item in pending:  # lint: disable=R1
                    rng.random()
            """,
        )
        assert "R6" in rules_hit(findings)

    def test_standalone_comment_shields_next_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def stamp():
                import time

                # lint: disable=R2
                return time.time()
            """,
        )
        assert "R2" not in rules_hit(findings)

    def test_file_level_disable(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            # lint: disable-file=R3
            def bucket(key, n):
                return hash(key) % n

            def bucket2(key, n):
                return hash(key) % n
            """,
        )
        assert "R3" not in rules_hit(findings)


class TestR7ParallelPurity:
    INJECTED_MUTATION = """
        from repro.perf import pmap_trials

        RESULTS = []

        def trial(seed):
            RESULTS.append(seed)
            return seed * 2

        def sweep(seeds):
            return pmap_trials(trial, [(s,) for s in seeds])
        """

    def test_shared_state_mutation_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, self.INJECTED_MUTATION)
        assert "R7" in rules_hit(findings)
        (finding,) = [f for f in findings if f.rule == "R7"]
        assert "global-write" in finding.message
        assert "trial" in finding.message

    def test_injected_mutation_invisible_to_per_file_rules(self, tmp_path):
        """The acceptance check: R1-R6 alone miss the shared-state race."""
        findings = lint_snippet(
            tmp_path,
            self.INJECTED_MUTATION,
            select=["R1", "R2", "R3", "R4", "R5", "R6"],
        )
        assert not findings

    def test_ambient_effect_through_helper_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            from repro.experiments.harness import map_trials

            def stamp():
                return time.time()

            def trial(seed):
                return stamp()

            def sweep(seeds):
                return map_trials(trial, seeds)
            """,
            select=["R7"],
        )
        assert rules_hit(findings) == {"R7"}
        (finding,) = findings
        assert "wallclock" in finding.message
        assert "via" in finding.message  # witness chain through stamp()

    def test_partial_submission_unwrapped(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from functools import partial

            from repro.perf import pmap_trials

            COUNTS = {}

            def trial(n, seed):
                COUNTS[seed] = n
                return n

            def sweep(seeds):
                return pmap_trials(partial(trial, 8), [(s,) for s in seeds])
            """,
            select=["R7"],
        )
        assert rules_hit(findings) == {"R7"}

    def test_campaign_measure_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.experiments.campaign import Campaign

            SEEN = set()

            def measure(config, seed):
                SEEN.add(seed)
                return seed

            def build():
                return Campaign(name="sweep", measure=measure)
            """,
            select=["R7"],
        )
        assert rules_hit(findings) == {"R7"}

    def test_pure_trial_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.perf import pmap_trials
            from repro.sim.rng import derive_rng

            def trial(seed):
                rng = derive_rng(seed, "trial")
                return rng.random()

            def sweep(seeds):
                return pmap_trials(trial, [(s,) for s in seeds])
            """,
            select=["R7"],
        )
        assert not findings

    def test_module_level_metrics_instrument_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.metrics import MetricsRegistry
            from repro.perf import pmap_trials

            REGISTRY = MetricsRegistry()
            TRIALS = REGISTRY.counter("trials", "trial count")

            def trial(seed):
                TRIALS.inc()
                return seed * 2

            def sweep(seeds):
                return pmap_trials(trial, [(s,) for s in seeds])
            """,
            select=["R7"],
        )
        assert rules_hit(findings) == {"R7"}
        (finding,) = findings
        assert "global-write" in finding.message
        assert "TRIALS.inc()" in finding.message

    def test_per_worker_registry_snapshot_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs.metrics import MetricsRegistry
            from repro.perf import pmap_trials

            def trial(seed):
                registry = MetricsRegistry()
                registry.counter("trials", "trial count").inc()
                return registry.snapshot()

            def sweep(seeds):
                return pmap_trials(trial, [(s,) for s in seeds])
            """,
            select=["R7"],
        )
        assert not findings


class TestR8RngDiscipline:
    def test_draw_inside_set_iteration_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def drain(rng):
                pending = {3, 1, 2}
                for item in pending:
                    rng.random()
            """,
            select=["R8"],
        )
        assert rules_hit(findings) == {"R8"}

    def test_draw_inside_set_returning_callee_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def frontier(n) -> set[int]:
                return {i * 7 % n for i in range(n)}

            def walk(rng, n):
                for node in frontier(n):
                    rng.choice([0, 1])
            """,
            select=["R8"],
        )
        assert rules_hit(findings) == {"R8"}
        (finding,) = findings
        assert "returns a set" in finding.message

    def test_draw_under_wallclock_guard_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def maybe(rng, deadline):
                if time.time() > deadline:
                    return rng.random()
                return 0.0
            """,
            select=["R8"],
        )
        assert rules_hit(findings) == {"R8"}
        (finding,) = findings
        assert "wallclock" in finding.message

    def test_draw_under_transitively_tainted_guard_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os

            def debug_enabled():
                return os.getenv("DEBUG") == "1"

            def maybe(rng):
                if debug_enabled():
                    return rng.random()
                return 0.0
            """,
            select=["R8"],
        )
        assert rules_hit(findings) == {"R8"}
        (finding,) = findings
        assert "env" in finding.message

    def test_sorted_iteration_and_seed_guard_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def drain(rng, slot):
                pending = {3, 1, 2}
                for item in sorted(pending):
                    rng.random()
                if slot % 2 == 0:
                    rng.random()
            """,
            select=["R8"],
        )
        assert not findings


class TestR9CacheKeyPurity:
    def test_registered_run_with_wallclock_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            from repro.experiments.registry import register

            @register("E99", "title", "claim")
            def run(trials=5, seed=0, fast=False):
                return time.time()
            """,
            select=["R9"],
        )
        assert rules_hit(findings) == {"R9"}
        (finding,) = findings
        assert "wallclock" in finding.message

    def test_spec_run_with_global_write_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.experiments.harness import ExperimentSpec

            HISTORY = []

            def run(trials=5, seed=0, fast=False):
                HISTORY.append(seed)
                return len(HISTORY)

            SPEC = ExperimentSpec(
                experiment_id="E98", title="t", claim="c", run=run
            )
            """,
            select=["R9"],
        )
        assert rules_hit(findings) == {"R9"}

    def test_seeded_run_with_io_clean(self, tmp_path):
        # I/O is allowed by R9 (progress output does not poison the
        # record values); non-replay effects and global writes are not.
        findings = lint_snippet(
            tmp_path,
            """
            from repro.experiments.registry import register
            from repro.sim.rng import derive_rng

            @register("E97", "title", "claim")
            def run(trials=5, seed=0, fast=False):
                rng = derive_rng(seed, "E97")
                print("running")
                return rng.random()
            """,
            select=["R9"],
        )
        assert not findings


class TestR10EffectDrift:
    def test_undeclared_inferred_effect_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def helper():
                '''A helper.

                Effects: none.
                '''
                return time.time()
            """,
            select=["R10"],
        )
        assert rules_hit(findings) == {"R10"}
        (finding,) = findings
        assert "wallclock" in finding.message

    def test_declaration_is_upper_bound(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def helper():
                '''A helper.

                Effects: rng, io.
                '''
                return 1
            """,
            select=["R10"],
        )
        assert not findings

    def test_unknown_declared_effect_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def helper():
                '''Effects: telepathy.'''
                return 1
            """,
            select=["R10"],
        )
        assert rules_hit(findings) == {"R10"}
        (finding,) = findings
        assert "telepathy" in finding.message

    def test_missing_entry_point_declaration_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Engine:
                def run(self, max_slots):
                    return max_slots

                def step(self):
                    '''One slot.

                    Effects: rng, perf-counter.
                    '''
                    return None
            """,
            name="repro/sim/engine.py",
            select=["R10"],
        )
        assert rules_hit(findings) == {"R10"}
        (finding,) = findings
        assert "Engine.run" in finding.message


class TestR11VectorContract:
    HIDDEN_STATE = """
        class Caster:
            vector_kind = "epidemic-broadcast"

            def __init__(self):
                self.informed = False
                self.heard = 0

            def end_slot(self, slot, outcome):
                if outcome is not None:
                    self._absorb()

            def _absorb(self):
                self.informed = True
                self.heard += 1

            def vector_export(self):
                return {"informed": self.informed}

            def vector_import(self, state):
                self.informed = state["informed"]
        """

    def test_hidden_mutated_attribute_flagged_with_witness(self, tmp_path):
        findings = lint_snippet(tmp_path, self.HIDDEN_STATE, select=["R11"])
        assert rules_hit(findings) == {"R11"}
        (finding,) = findings
        assert "self.heard" in finding.message
        assert "via end_slot() -> _absorb()" in finding.message
        assert "vector_export" in finding.message

    def test_exported_attribute_is_clean(self, tmp_path):
        clean = self.HIDDEN_STATE.replace(
            'return {"informed": self.informed}',
            'return {"informed": self.informed, "heard": self.heard}',
        )
        assert not lint_snippet(tmp_path, clean, select=["R11"])

    def test_mutation_guarded_by_exported_flag_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Caster:
                vector_kind = "epidemic-broadcast"

                def __init__(self, keep_log=False):
                    self.keep_log = keep_log
                    self.log = []

                def end_slot(self, slot, outcome):
                    if self.keep_log:
                        self.log.append(slot)

                def vector_export(self):
                    return {"keep_log": self.keep_log}

                def vector_import(self, state):
                    self.keep_log = state["keep_log"]
            """,
            select=["R11"],
        )
        assert not findings

    def test_import_reading_unexported_key_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Caster:
                vector_kind = "epidemic-broadcast"

                def vector_export(self):
                    return {"informed": self.informed}

                def vector_import(self, state):
                    self.informed = state["informed"]
                    self.parent = state["parent"]
            """,
            select=["R11"],
        )
        assert rules_hit(findings) == {"R11"}
        (finding,) = findings
        assert "state['parent']" in finding.message

    def test_missing_export_import_pair_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Caster:
                vector_kind = "epidemic-broadcast"

                def begin_slot(self, slot):
                    return None
            """,
            select=["R11"],
        )
        messages = [finding.message for finding in findings]
        assert len(messages) == 2
        assert any("vector_export" in message for message in messages)
        assert any("vector_import" in message for message in messages)

    def test_unresolvable_base_stands_down_on_missing_methods(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from somewhere.else_ import ColumnarBase

            class Caster(ColumnarBase):
                vector_kind = "epidemic-broadcast"
            """,
            select=["R11"],
        )
        assert not findings

    def test_non_columnar_class_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class Plain:
                def end_slot(self, slot, outcome):
                    self.heard = slot
            """,
            select=["R11"],
        )
        assert not findings


class TestR12WorkerSharedState:
    def test_module_list_captured_via_partial_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from functools import partial

            from repro.perf import pmap_trials

            RESULTS = []

            def trial(sink, seed):
                sink.append(seed)
                return seed

            def sweep(seeds):
                return pmap_trials(partial(trial, RESULTS), [(s,) for s in seeds])
            """,
            select=["R12"],
        )
        assert rules_hit(findings) == {"R12"}
        (finding,) = findings
        assert "'RESULTS'" in finding.message
        assert "module-level list" in finding.message
        assert "pmap_trials()" in finding.message

    def test_live_registry_captured_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from functools import partial

            from repro.experiments.harness import map_trials
            from repro.obs.metrics import MetricsRegistry

            REGISTRY = MetricsRegistry()

            def trial(registry, seed):
                return seed

            def sweep(seeds):
                return map_trials(partial(trial, REGISTRY), seeds)
            """,
            select=["R12"],
        )
        assert rules_hit(findings) == {"R12"}
        (finding,) = findings
        assert "live MetricsRegistry instance" in finding.message

    def test_plain_seed_data_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from functools import partial

            from repro.perf import pmap_trials

            SIZE = 64

            def trial(size, seed):
                return size * seed

            def sweep(seeds):
                return pmap_trials(partial(trial, SIZE), [(s,) for s in seeds])
            """,
            select=["R12"],
        )
        assert not findings

    def test_local_list_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from functools import partial

            from repro.perf import pmap_trials

            def trial(sink, seed):
                return seed

            def sweep(seeds):
                sink = []
                return pmap_trials(partial(trial, sink), [(s,) for s in seeds])
            """,
            select=["R12"],
        )
        assert not findings


class TestR13FloatDeterminism:
    BACKEND = "repro/sim/backends/snippet.py"

    def test_float_reduction_in_backend_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rng, n):
                keys = rng.random(n)
                return keys.sum()
            """,
            name=self.BACKEND,
            select=["R13"],
        )
        assert rules_hit(findings) == {"R13"}
        (finding,) = findings
        assert "keys.sum()" in finding.message
        assert "non-associative" in finding.message

    def test_narrowing_astype_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(column):
                return column.astype(np.float32)
            """,
            name=self.BACKEND,
            select=["R13"],
        )
        assert rules_hit(findings) == {"R13"}
        (finding,) = findings
        assert "np.float32" in finding.message

    def test_narrow_dtype_kwarg_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(n):
                return np.zeros(n, dtype="float32")
            """,
            name=self.BACKEND,
            select=["R13"],
        )
        assert rules_hit(findings) == {"R13"}

    def test_integer_reduction_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def kernel(rng, n):
                listeners = np.zeros(n, dtype=bool)
                counts = rng.integers(0, 8, n)
                return listeners.sum() + counts.sum()
            """,
            name=self.BACKEND,
            select=["R13"],
        )
        assert not findings

    def test_same_code_outside_backend_layer_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def average(rng, n):
                keys = rng.random(n)
                return keys.mean()
            """,
            name="repro/analysis/snippet.py",
            select=["R13"],
        )
        assert not findings


class TestRuleDocsConsistency:
    """Satellite 1: every rule id ships explain text, a SARIF catalog
    entry, and a docs/lint.md anchor — no rule lands undocumented."""

    def test_every_rule_has_explain_text(self):
        for rule_id, rule in all_rules().items():
            text = rule.explain()
            assert len(text.splitlines()) >= 3, f"{rule_id} explain() is trivial"
            assert rule_id in text.splitlines()[0], (
                f"{rule_id} explain() must open with its id"
            )

    def test_every_rule_in_sarif_catalog(self):
        from repro.lint.reporters import sarif_document

        catalog = sarif_document([])["runs"][0]["tool"]["driver"]["rules"]
        by_id = {entry["id"]: entry for entry in catalog}
        for rule_id, rule in all_rules().items():
            assert rule_id in by_id, f"{rule_id} missing from SARIF catalog"
            entry = by_id[rule_id]
            assert entry["name"] == rule.title
            assert entry["shortDescription"]["text"] == rule.invariant

    def test_every_rule_has_docs_anchor(self):
        docs = (ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
        for rule_id, rule in all_rules().items():
            anchor = f"### {rule_id} — {rule.title}"
            assert anchor in docs, f"docs/lint.md lacks anchor {anchor!r}"


class TestRunnerAndCli:
    def test_registry_has_thirteen_rules(self):
        assert list(all_rules()) == [
            "R1",
            "R2",
            "R3",
            "R4",
            "R5",
            "R6",
            "R7",
            "R8",
            "R9",
            "R10",
            "R11",
            "R12",
            "R13",
        ]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        findings = lint_paths([str(path)])
        assert findings and findings[0].rule == "E0"

    def test_select_unknown_rule_raises(self, tmp_path):
        path = tmp_path / "ok.py"
        path.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            lint_paths([str(path)], select=["R99"])

    def test_finding_render_format(self):
        finding = Finding(path="a.py", line=3, col=4, rule="R1", message="boom")
        assert finding.render() == "a.py:3:4: R1 boom"

    def test_cli_exit_zero_on_clean_file(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_exit_one_on_violation(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        assert lint_main([str(path)]) == 1
        assert "R2" in capsys.readouterr().out

    def test_cli_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_cli_json_format(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("bucket = hash('x')\n", encoding="utf-8")
        assert lint_main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["by_rule"] == {"R3": 1}

    def test_cli_select_restricts_rules(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        assert lint_main([str(path), "--select", "R1"]) == 0

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R1", "R2", "R3", "R4", "R5", "R6"):
            assert rule_id in out


class TestMountedCli:
    """``repro lint`` mounts the ``repro-lint`` parser and dispatch."""

    @staticmethod
    def options_help(main, argv, capsys):
        """The ``--help`` text from the argument list on."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        return out[out.index("positional arguments:") :]

    def test_help_offers_the_same_options(self, capsys):
        mounted = self.options_help(repro_main, ["lint", "--help"], capsys)
        standalone = self.options_help(lint_main, ["--help"], capsys)
        assert mounted == standalone
        assert "report format (default: text)" in mounted

    def test_effects_without_function_prints_one_usage_line(self, capsys):
        assert lint_main(["effects"]) == 2
        standalone = capsys.readouterr().err
        assert repro_main(["lint", "effects"]) == 2
        assert capsys.readouterr().err == standalone
        assert standalone.splitlines() == [
            "repro-lint: usage: repro-lint effects MODULE:FUNC [--root PATH]"
        ]


class TestRunnerRobustness:
    def test_non_python_path_exits_two_with_message(self, tmp_path, capsys):
        """Regression: `repro-lint README.md` used to crash with an
        uncaught FileNotFoundError from iter_python_files."""
        readme = tmp_path / "README.md"
        readme.write_text("# docs\n", encoding="utf-8")
        assert lint_main([str(readme)]) == 2
        err = capsys.readouterr().err
        assert "not a python file or directory" in err
        assert "Traceback" not in err

    def test_non_utf8_file_reported_as_finding(self, tmp_path):
        path = tmp_path / "binary.py"
        path.write_bytes(b"x = '\xff\xfe'\n")
        findings = lint_paths([str(path)])
        assert [f.rule for f in findings] == ["E0"]
        assert "UTF-8" in findings[0].message

    def test_cache_invalidated_on_edit(self, tmp_path):
        path = tmp_path / "mut.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert not lint_paths([str(path)])
        path.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        os.utime(path, ns=(1, 1))  # force a distinct mtime regardless of clock
        findings = lint_paths([str(path)])
        assert "R2" in rules_hit(findings)

    def test_cache_reuses_parse_for_unchanged_file(self, tmp_path):
        path = tmp_path / "same.py"
        path.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        first = lint_paths([str(path)])
        second = lint_paths([str(path)])
        assert first == second
        from repro.lint.runner import _CACHE

        assert str(path) in _CACHE

    def test_cache_detects_same_size_same_mtime_rewrite(self, tmp_path):
        """Satellite 2: the cache keys on content, not (mtime, size).

        Two writes of equal length inside the filesystem's mtime
        resolution used to collide in the stat-keyed cache and serve
        the stale parse; the content-hash key must not."""
        path = tmp_path / "twin.py"
        dirty = "import time\nstamp = time.time()\n"
        clean = "x = 1  " + "#" * (len(dirty) - 8) + "\n"
        assert len(clean) == len(dirty)
        path.write_text(clean, encoding="utf-8")
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        assert not lint_paths([str(path)])
        path.write_text(dirty, encoding="utf-8")
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))  # identical stat
        findings = lint_paths([str(path)])
        assert "R2" in rules_hit(findings)

    def test_ignore_drops_rule(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nstamp = time.time()\n", encoding="utf-8")
        assert lint_paths([str(path)], ignore=["R2"]) == []
        with pytest.raises(ValueError):
            lint_paths([str(path)], ignore=["R99"])


class TestBaselineWorkflow:
    DIRTY = "import time\nstamp = time.time()\n"

    def test_update_then_gate(self, tmp_path, capsys):
        source = tmp_path / "dirty.py"
        source.write_text(self.DIRTY, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(source), "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        # Baselined findings no longer fail the run...
        assert lint_main([str(source), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        # ...but a new finding still does.
        source.write_text(self.DIRTY + "salt = hash('x')\n", encoding="utf-8")
        assert lint_main([str(source), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "R3" in out and "R2" not in out

    def test_baseline_matches_by_count(self, tmp_path):
        from repro.lint.baseline import partition

        finding = Finding(path="a.py", line=3, col=0, rule="R2", message="m")
        twin = Finding(path="a.py", line=9, col=0, rule="R2", message="m")
        baseline = {" :: ".join(finding.fingerprint()): 1}
        new, known = partition([finding, twin], baseline)
        assert len(known) == 1 and len(new) == 1

    def test_baseline_is_line_insensitive(self, tmp_path, capsys):
        source = tmp_path / "dirty.py"
        source.write_text(self.DIRTY, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        lint_main([str(source), "--baseline", str(baseline), "--update-baseline"])
        source.write_text("# moved down\n\n" + self.DIRTY, encoding="utf-8")
        capsys.readouterr()
        assert lint_main([str(source), "--baseline", str(baseline)]) == 0

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        source = tmp_path / "clean.py"
        source.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json", encoding="utf-8")
        assert lint_main([str(source), "--baseline", str(baseline)]) == 2

    def test_checked_in_baseline_is_empty_and_loadable(self):
        from repro.lint.baseline import load_baseline

        assert load_baseline(ROOT / "lint-baseline.json") == {}

    def test_prune_baseline_drops_stale_fingerprints(self, tmp_path, capsys):
        """Satellite 3: fixing a finding then pruning shrinks the
        baseline instead of letting the dead fingerprint mask a
        future regression at the same site."""
        from repro.lint.baseline import load_baseline

        source = tmp_path / "dirty.py"
        source.write_text(self.DIRTY + "salt = hash('x')\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        lint_main([str(source), "--baseline", str(baseline), "--update-baseline"])
        assert len(load_baseline(baseline)) == 2
        source.write_text(self.DIRTY, encoding="utf-8")  # R3 finding fixed
        capsys.readouterr()
        assert (
            lint_main(
                [str(source), "--baseline", str(baseline), "--prune-baseline"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pruned" in out
        assert "dropped" in out and "R3" in out
        remaining = load_baseline(baseline)
        assert len(remaining) == 1
        assert all("R3" not in key for key in remaining)
        # The pruned baseline still gates the surviving finding.
        assert lint_main([str(source), "--baseline", str(baseline)]) == 0

    def test_prune_caps_counts_at_current_occurrences(self):
        from repro.lint.baseline import fingerprint_counts, prune

        finding = Finding(path="a.py", line=3, col=0, rule="R2", message="m")
        key = next(iter(fingerprint_counts([finding])))
        gone = key.replace("R2", "R3")
        pruned, dropped = prune({key: 3, gone: 1}, [finding])
        assert pruned == {key: 1}
        assert dropped == {key: 2, gone: 1}

    def test_prune_and_update_are_mutually_exclusive(self, tmp_path, capsys):
        source = tmp_path / "clean.py"
        source.write_text("x = 1\n", encoding="utf-8")
        assert (
            lint_main(
                [
                    str(source),
                    "--baseline",
                    str(tmp_path / "baseline.json"),
                    "--update-baseline",
                    "--prune-baseline",
                ]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err


class TestExplainAndEffects:
    def test_explain_prints_rule_documentation(self, capsys):
        assert lint_main(["--explain", "R7"]) == 0
        out = capsys.readouterr().out
        assert "parallel-purity" in out or "parallel purity" in out
        assert "pmap_trials" in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--explain", "R99"]) == 2

    @staticmethod
    def effects_dump(project, target):
        """What ``repro-lint effects TARGET`` prints for *project*."""
        return project.effects.describe(project.resolve_callable_qualname(target))

    def test_effects_dump_for_engine_run(self, shipped_project):
        out = self.effects_dump(shipped_project, "repro.sim.engine:Engine.run")
        assert "repro.sim.engine:Engine.run" in out
        assert "rng" in out
        # The engine reads no clock: run timing belongs to the harness.
        assert "perf-counter" not in out

    def test_effects_dump_for_vector_engine_run(self, shipped_project):
        target = "repro.sim.backends.vector:VectorEngine.run"
        out = self.effects_dump(shipped_project, target)
        assert target in out
        # Reached through the columnar kernel, which run calls directly.
        assert "rng" in out
        assert "VectorEngine._run_vector" in out

    def test_effects_unknown_function_exits_two(self, tmp_path, capsys):
        root = tmp_path / "repro"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "known.py").write_text("def present():\n    return 1\n")
        assert lint_main(["effects", "repro.known:present", "--root", str(root)]) == 0
        capsys.readouterr()
        assert (
            lint_main(["effects", "repro.nope:missing", "--root", str(root)]) == 2
        )
        assert "unknown function 'repro.nope:missing'" in capsys.readouterr().err

    def test_effects_usage_error(self, capsys):
        assert lint_main(["effects"]) == 2


class TestSelfCheck:
    def test_shipped_sources_are_clean(self):
        findings = lint_paths([str(SRC)])
        rendered = "\n".join(finding.render() for finding in findings)
        assert not findings, f"src/repro has violations:\n{rendered}"

    def test_injected_violation_is_caught(self, tmp_path):
        """End-to-end acceptance check: a planted bug makes lint fail."""
        victim = tmp_path / "repro" / "core" / "planted.py"
        victim.parent.mkdir(parents=True)
        victim.write_text(
            "import random\n\n\ndef jitter():\n    return random.random()\n",
            encoding="utf-8",
        )
        assert lint_main([str(tmp_path)]) == 1
