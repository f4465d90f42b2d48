"""Model-soundness static analysis for the reproduction.

The PODC'15 model is easy to violate silently: a protocol that peeks at
the engine, an ambient ``random.*`` call, or a bare set iteration still
*runs* — it just stops being a faithful, replayable reproduction.  This
package encodes the model's invariants as AST-level lint rules
(stdlib :mod:`ast` only, no third-party dependencies):

========  ================================  ==================================
Rule      Name                              Invariant guarded
========  ================================  ==================================
``R1``    no-ambient-randomness             all streams derive from the root
                                            seed (:mod:`repro.sim.rng`)
``R2``    no-wallclock-no-entropy           logical time is the slot counter
``R3``    no-salted-hash                    seed derivation is stable BLAKE2b
``R4``    protocol-isolation                nodes see only their ``NodeView``
``R5``    no-frozen-mutation                slot records are immutable history
``R6``    unordered-iteration-determinism   iteration orders replay exactly
``R7``    parallel-purity                   callables fanned across workers
                                            are transitively effect-pure
``R8``    rng-stream-discipline             draw sequences are pure functions
                                            of (config, seed)
``R9``    cache-key-purity                  experiment records replay from
                                            (config, seed) alone
``R10``   effect-signature-drift            declared ``Effects:`` contracts
                                            cover inferred signatures
========  ================================  ==================================

R1–R6 inspect one file at a time.  R7–R10 are whole-program rules built
on :mod:`repro.lint.analysis`: an import graph over the linted files, a
conservatively-resolved call graph, and per-function effect signatures
propagated to a transitive fixpoint.

Run it as ``repro-lint`` / ``python -m repro lint`` / ``make lint``; the
test suite's self-check (``tests/test_lint.py``) keeps ``src/repro``
permanently clean, and CI gates every tracked tree against
``lint-baseline.json``.  See ``docs/lint.md`` for the rule-by-rule
rationale, ``repro-lint --explain RULE`` for any single rule, and
``repro-lint effects MODULE:FUNC`` for an effect-signature dump.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "load_baseline": "repro.lint.baseline",
    "partition": "repro.lint.baseline",
    "write_baseline": "repro.lint.baseline",
    "ModuleContext": "repro.lint.context",
    "Finding": "repro.lint.findings",
    "ProjectRule": "repro.lint.registry",
    "Rule": "repro.lint.registry",
    "all_rules": "repro.lint.registry",
    "register": "repro.lint.registry",
    "render_json": "repro.lint.reporters",
    "render_sarif": "repro.lint.reporters",
    "render_text": "repro.lint.reporters",
    "sarif_document": "repro.lint.reporters",
    "validate_sarif": "repro.lint.reporters",
    "clear_cache": "repro.lint.runner",
    "iter_python_files": "repro.lint.runner",
    "lint_file": "repro.lint.runner",
    "lint_paths": "repro.lint.runner",
    "load_module": "repro.lint.runner",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
