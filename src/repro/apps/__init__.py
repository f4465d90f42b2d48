"""Applications composed from the paper's primitives.

The paper motivates its algorithms as building blocks; this package
contains the compositions it names — currently consensus
(:mod:`repro.apps.consensus`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ConsensusResult": "repro.apps.consensus",
    "run_consensus": "repro.apps.consensus",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
