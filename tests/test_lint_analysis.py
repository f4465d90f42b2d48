"""Tests for the whole-program analysis layer (``repro.lint.analysis``).

Fixtures build small multi-module "repro" trees under tmp_path and run
the full import-graph → call-graph → effect-fixpoint stack over them;
one section checks the analysis of the real shipped sources.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.analysis import (
    EFFECT_AMBIENT_RNG,
    EFFECT_GLOBAL_WRITE,
    EFFECT_IO,
    EFFECT_RNG,
    EFFECT_WALLCLOCK,
    build_project,
    declared_effects,
)
from repro.lint.context import ModuleContext
from repro.lint.runner import iter_python_files, load_module


def project_from(tmp_path, files):
    """Write ``{relative_path: source}`` and build a ProjectContext."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    modules = [load_module(path) for path in iter_python_files([tmp_path])]
    return build_project(
        module for module in modules if isinstance(module, ModuleContext)
    )


class TestCallGraph:
    def test_cross_module_resolution_through_reexport(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/util/timers.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
                "repro/util/__init__.py": """
                    from repro.util.timers import stamp
                    """,
                "repro/app.py": """
                    from repro.util import stamp

                    def tick():
                        return stamp()
                    """,
            },
        )
        callees = project.callgraph.callees("repro.app:tick")
        assert callees == ["repro.util.timers:stamp"]

    def test_resolution_through_lazy_export_table(self, tmp_path):
        """A package exporting ``f`` only through its ``_EXPORTS`` table
        (see ``repro._lazy``) still hands callers ``f``'s effects."""
        project = project_from(
            tmp_path,
            {
                "repro/pkg/draws.py": """
                    def f(rng):
                        return rng.randint(0, 3)
                    """,
                "repro/pkg/__init__.py": """
                    _EXPORTS = {"f": "repro.pkg.draws"}
                    """,
                "repro/app.py": """
                    from repro.pkg import f

                    def caller(rng):
                        return f(rng)
                    """,
            },
        )
        assert project.callgraph.callees("repro.app:caller") == ["repro.pkg.draws:f"]
        assert EFFECT_RNG in project.effects.signature("repro.app:caller")

    def test_self_method_resolution_walks_bases(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/base.py": """
                    class Base:
                        def emit(self):
                            print("hi")
                    """,
                "repro/derived.py": """
                    from repro.base import Base

                    class Derived(Base):
                        def poke(self):
                            self.emit()
                    """,
            },
        )
        assert project.callgraph.callees("repro.derived:Derived.poke") == [
            "repro.base:Base.emit"
        ]

    def test_parameter_receiver_never_unique_resolves(self, tmp_path):
        """An injected (possibly-None) dependency must not contribute a
        method edge: the effect would not be provable at the call site."""
        project = project_from(
            tmp_path,
            {
                "repro/sinkmod.py": """
                    class Sink:
                        def emit(self, record):
                            print(record)
                    """,
                "repro/user.py": """
                    def forward(sink, record):
                        if sink is not None:
                            sink.emit(record)
                    """,
            },
        )
        assert project.callgraph.callees("repro.user:forward") == []
        assert EFFECT_IO not in project.effects.signature("repro.user:forward")

    def test_local_receiver_unique_resolves(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/sinkmod.py": """
                    class Sink:
                        def emit(self, record):
                            print(record)
                    """,
                "repro/user.py": """
                    from repro.sinkmod import Sink

                    def forward(record):
                        sink = Sink()
                        sink.emit(record)
                    """,
            },
        )
        assert "repro.sinkmod:Sink.emit" in project.callgraph.callees(
            "repro.user:forward"
        )


class TestEffects:
    def test_transitive_fixpoint_and_witness_chain(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/deep.py": """
                    import time

                    def c():
                        return time.time()

                    def b():
                        return c()

                    def a():
                        return b()
                    """,
            },
        )
        signature = project.effects.signature("repro.deep:a")
        assert EFFECT_WALLCLOCK in signature
        via, origin = project.effects.witness("repro.deep:a", EFFECT_WALLCLOCK)
        assert via == ["repro.deep:b", "repro.deep:c"]
        assert origin is not None and "time.time" in origin.detail
        rendered = project.effects.render_witness("repro.deep:a", EFFECT_WALLCLOCK)
        assert "repro.deep:b -> repro.deep:c" in rendered

    def test_seeded_draws_classified_as_rng_not_ambient(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/draws.py": """
                    def walk(rng, steps):
                        total = 0
                        for _ in range(steps):
                            total += rng.randint(0, 3)
                        return total
                    """,
            },
        )
        assert project.effects.signature("repro.draws:walk") == {EFFECT_RNG}

    def test_numpy_generator_draws_classified_as_rng(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/sim/backends/kernel.py": """
                    def draw_labels(np_rng, count, channels):
                        return np_rng.integers(0, channels, size=count)

                    def draw_keys(np_rng, count):
                        return np_rng.random(count)
                    """,
            },
        )
        effects = project.effects
        assert effects.signature("repro.sim.backends.kernel:draw_labels") == {
            EFFECT_RNG
        }
        assert effects.signature("repro.sim.backends.kernel:draw_keys") == {
            EFFECT_RNG
        }

    def test_seeded_default_rng_is_rng_unseeded_is_ambient(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/sim/backends/gen.py": """
                    import numpy as np

                    def seeded(seed):
                        return np.random.default_rng(seed)

                    def unseeded():
                        return np.random.default_rng()
                    """,
            },
        )
        effects = project.effects
        assert effects.signature("repro.sim.backends.gen:seeded") == {EFFECT_RNG}
        assert effects.signature("repro.sim.backends.gen:unseeded") == {
            EFFECT_AMBIENT_RNG
        }

    def test_module_state_mutation_is_global_write(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/stateful.py": """
                    CACHE = {}
                    TOTAL = 0

                    def remember(key, value):
                        CACHE[key] = value

                    def bump():
                        global TOTAL
                        TOTAL += 1

                    def local_only(key, value):
                        cache = {}
                        cache[key] = value
                        return cache
                    """,
            },
        )
        effects = project.effects
        assert EFFECT_GLOBAL_WRITE in effects.signature("repro.stateful:remember")
        assert EFFECT_GLOBAL_WRITE in effects.signature("repro.stateful:bump")
        assert effects.signature("repro.stateful:local_only") == frozenset()

    def test_mutator_method_on_module_state(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/registry.py": """
                    SEEN = set()

                    def mark(item):
                        SEEN.add(item)
                    """,
            },
        )
        assert EFFECT_GLOBAL_WRITE in project.effects.signature(
            "repro.registry:mark"
        )

    def test_unresolved_calls_contribute_nothing(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/opaque.py": """
                    def launder(callback):
                        return callback()
                    """,
            },
        )
        assert project.effects.signature("repro.opaque:launder") == frozenset()

    def test_describe_mentions_unresolved_polarity(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/pure.py": """
                    def add(a, b):
                        return a + b
                    """,
            },
        )
        text = project.effects.describe("repro.pure:add")
        assert "pure up to unresolved calls" in text
        assert "unknown function" in project.effects.describe("repro.pure:nope")


class TestDeclaredEffects:
    def parse_one(self, source):
        return ast.parse(textwrap.dedent(source)).body[0]

    def test_parses_comma_list(self):
        node = self.parse_one(
            '''
            def f():
                """Docstring.

                Effects: rng, perf-counter.
                """
            '''
        )
        assert declared_effects(node) == {"rng", "perf-counter"}

    def test_none_means_empty(self):
        node = self.parse_one(
            '''
            def f():
                """Effects: none."""
            '''
        )
        assert declared_effects(node) == frozenset()

    def test_absent_returns_none(self):
        node = self.parse_one(
            '''
            def f():
                """Just a docstring."""
            '''
        )
        assert declared_effects(node) is None


class TestQualnameResolution:
    def test_colon_and_dotted_spellings(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/mod.py": """
                    class Thing:
                        def act(self):
                            return 1
                    """,
            },
        )
        assert (
            project.resolve_callable_qualname("repro.mod:Thing.act")
            == "repro.mod:Thing.act"
        )
        assert (
            project.resolve_callable_qualname("repro.mod.Thing.act")
            == "repro.mod:Thing.act"
        )
        assert project.resolve_callable_qualname("repro.mod:Missing.act") is None


class TestShippedSources:
    def test_engine_run_signature_is_rng_and_perf_counter(self, shipped_project):
        signature = shipped_project.effects.signature("repro.sim.engine:Engine.run")
        assert EFFECT_RNG in signature
        assert signature <= {EFFECT_RNG, "perf-counter"}

    def test_experiment_measures_are_parallel_pure(self, shipped_project):
        from repro.lint.analysis import IMPURE_EFFECTS

        measures = [
            qualname
            for qualname in shipped_project.callgraph.functions
            if qualname.startswith("repro.experiments.")
            and ":measure_" in qualname
        ]
        assert measures, "expected measure_* trial functions in experiments"
        for qualname in measures:
            impure = shipped_project.effects.signature(qualname) & IMPURE_EFFECTS
            assert not impure, f"{qualname} has impure effects {sorted(impure)}"

    def test_import_graph_covers_package(self, shipped_project):
        assert "repro.sim.engine" in shipped_project.imports.modules
        assert "repro.experiments.harness" in shipped_project.imports.modules
        assert "repro.obs.metrics" in shipped_project.imports.modules


class TestMetricsRegistryEffects:
    def test_shared_instrument_mutation_reaches_fixpoint(self, tmp_path):
        """A worker bumping a module-level instrument is a global write.

        The metrics registry's sanctioned parallel pattern is
        per-worker registries merged via snapshots; this pins the
        analysis seeing through the anti-pattern (a shared module-level
        Counter mutated from a pmap-submitted trial), including through
        a helper call.
        """
        project = project_from(
            tmp_path,
            {
                "repro/sweep.py": """
                    REGISTRY = {}

                    def trial(seed):
                        record(seed)
                        return seed

                    def record(seed):
                        REGISTRY.setdefault(seed, 0)
                    """,
            },
        )
        signature = project.effects.signature("repro.sweep:trial")
        assert EFFECT_GLOBAL_WRITE in signature

    def test_instrument_mutator_methods_are_global_writes(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/metered.py": """
                    TRIALS = object()
                    PEAK = object()
                    LATENCY = object()

                    def count():
                        TRIALS.inc()

                    def level(value):
                        PEAK.set(value)

                    def sample(value):
                        LATENCY.observe(value)

                    def local_is_fine():
                        gauge = object()
                        gauge.set(1)
                    """,
            },
        )
        for qualname in ("repro.metered:count", "repro.metered:level", "repro.metered:sample"):
            assert EFFECT_GLOBAL_WRITE in project.effects.signature(qualname)
        assert EFFECT_GLOBAL_WRITE not in project.effects.signature(
            "repro.metered:local_is_fine"
        )
