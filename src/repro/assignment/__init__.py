"""Channel-assignment generators and validators.

See :mod:`repro.assignment.generators` for the catalogue of overlap
patterns (shared core, pairwise blocks, lower-bound instances, dynamic
schedules) and :mod:`repro.assignment.validation` for structural
statistics.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GENERATORS": "repro.assignment.generators",
    "dynamic_shared_core_schedule": "repro.assignment.generators",
    "hopping_discussion_instance": "repro.assignment.generators",
    "identical": "repro.assignment.generators",
    "pairwise_blocks": "repro.assignment.generators",
    "random_with_core": "repro.assignment.generators",
    "shared_core": "repro.assignment.generators",
    "two_set_worst_case": "repro.assignment.generators",
    "effective_overlap": "repro.assignment.jammed",
    "jammed_dynamic_schedule": "repro.assignment.jammed",
    "random_jam_schedule": "repro.assignment.jammed",
    "AssignmentSummary": "repro.assignment.validation",
    "channel_load": "repro.assignment.validation",
    "overlap_matrix": "repro.assignment.validation",
    "shared_channels": "repro.assignment.validation",
    "summarize": "repro.assignment.validation",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
