"""Whole-program analysis layer under the model-soundness linter.

Three passes, each feeding the next:

1. :mod:`repro.lint.analysis.imports` — stable module names for every
   linted file and the import graph between them;
2. :mod:`repro.lint.analysis.callgraph` — every function/method with a
   qualified name (``repro.sim.engine:Engine.run``) and conservatively
   resolved call edges;
3. :mod:`repro.lint.analysis.effects` — per-function effect signatures
   (RNG draws, shared-state writes, I/O, wallclock, nondeterministic
   builtins) propagated transitively to a fixpoint, each effect with a
   witness chain back to the introducing line.

:func:`build_project` runs all three and returns the
:class:`ProjectContext` consumed by the whole-program rules R7–R10 and
by ``repro-lint effects MODULE:FUNC``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CallGraph": "repro.lint.analysis.callgraph",
    "CallSite": "repro.lint.analysis.callgraph",
    "ClassInfo": "repro.lint.analysis.callgraph",
    "FunctionInfo": "repro.lint.analysis.callgraph",
    "build_call_graph": "repro.lint.analysis.callgraph",
    "ALL_EFFECTS": "repro.lint.analysis.effects",
    "EFFECT_AMBIENT_RNG": "repro.lint.analysis.effects",
    "EFFECT_ENV": "repro.lint.analysis.effects",
    "EFFECT_GLOBAL_WRITE": "repro.lint.analysis.effects",
    "EFFECT_IO": "repro.lint.analysis.effects",
    "EFFECT_NONDET": "repro.lint.analysis.effects",
    "EFFECT_PERF_COUNTER": "repro.lint.analysis.effects",
    "EFFECT_RNG": "repro.lint.analysis.effects",
    "EFFECT_WALLCLOCK": "repro.lint.analysis.effects",
    "IMPURE_EFFECTS": "repro.lint.analysis.effects",
    "NON_REPLAY_EFFECTS": "repro.lint.analysis.effects",
    "EffectAnalysis": "repro.lint.analysis.effects",
    "Origin": "repro.lint.analysis.effects",
    "analyze_effects": "repro.lint.analysis.effects",
    "declared_effects": "repro.lint.analysis.effects",
    "ImportGraph": "repro.lint.analysis.imports",
    "build_import_graph": "repro.lint.analysis.imports",
    "module_name_for": "repro.lint.analysis.imports",
    "resolve_external": "repro.lint.analysis.imports",
    "ProjectContext": "repro.lint.analysis.project",
    "build_project": "repro.lint.analysis.project",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
