"""The decay-backoff substrate validating the paper's collision abstraction
(footnote 4): one message succeeds w.h.p. within O(log^2 n) micro-slots."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DecayResult": "repro.backoff.decay",
    "DecaySchedule": "repro.backoff.decay",
    "resolve_contention": "repro.backoff.decay",
    "success_probability_curve": "repro.backoff.decay",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
