"""Built-in lint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Each module holds one rule; the rule's
docstring states the model invariant it guards (mirrored in
``docs/lint.md`` and printed by ``repro-lint --explain RULE``).

R1–R6 and R13 are per-file rules; R7–R12 are whole-program rules built
on :mod:`repro.lint.analysis` (import graph → call graph → transitive
effect signatures).
"""

# Eager, unlike every other package: importing these modules registers the rules.
from repro.lint.rules import (  # noqa: F401
    ambient_randomness,
    cache_purity,
    effect_drift,
    float_determinism,
    frozen_mutation,
    parallel_purity,
    protocol_isolation,
    rng_discipline,
    salted_hash,
    unordered_iteration,
    vector_contract,
    wallclock,
    worker_shared_state,
)

__all__ = [
    "ambient_randomness",
    "cache_purity",
    "effect_drift",
    "float_determinism",
    "frozen_mutation",
    "parallel_purity",
    "protocol_isolation",
    "rng_discipline",
    "salted_hash",
    "unordered_iteration",
    "vector_contract",
    "wallclock",
    "worker_shared_state",
]
