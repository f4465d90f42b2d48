"""Spatial primary-user spectrum model — the layer below the paper's model.

Derives per-node channel availability from simulated primary
transmitters (TV whitespace style), turning the paper's abstract
``(n, c, k)`` inputs into emergent, measured quantities.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PrimaryUser": "repro.spectrum.model",
    "SecondaryNode": "repro.spectrum.model",
    "SpectrumWorld": "repro.spectrum.model",
    "churning_schedule": "repro.spectrum.model",
    "min_overlap_over": "repro.spectrum.model",
    "random_world": "repro.spectrum.model",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
