"""Analysis utilities: closed-form bounds, trial statistics, scaling fits."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BootstrapCI": "repro.analysis.bootstrap",
    "bootstrap_ci": "repro.analysis.bootstrap",
    "speedup_ci": "repro.analysis.bootstrap",
    "ascii_curve": "repro.analysis.curves",
    "histogram": "repro.analysis.curves",
    "sparkline": "repro.analysis.curves",
    "Ecdf": "repro.analysis.distributions",
    "GeometricFit": "repro.analysis.distributions",
    "fit_geometric": "repro.analysis.distributions",
    "tail_at_multiples": "repro.analysis.distributions",
    "LinearFit": "repro.analysis.fitting",
    "fit_linear": "repro.analysis.fitting",
    "fit_proportional": "repro.analysis.fitting",
    "ratio_stability": "repro.analysis.fitting",
    "Summary": "repro.analysis.stats",
    "geometric_mean": "repro.analysis.stats",
    "mean_confidence_interval": "repro.analysis.stats",
    "percentile": "repro.analysis.stats",
    "success_rate": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "wilson_interval": "repro.analysis.stats",
    "aggregation_lower_bound": "repro.analysis.theory",
    "bipartite_hitting_lower_bound": "repro.analysis.theory",
    "broadcast_lower_bound_global_labels": "repro.analysis.theory",
    "broadcast_lower_bound_local_labels": "repro.analysis.theory",
    "cogcast_slot_bound": "repro.analysis.theory",
    "cogcomp_slot_bound": "repro.analysis.theory",
    "complete_hitting_lower_bound": "repro.analysis.theory",
    "decay_backoff_bound": "repro.analysis.theory",
    "hopping_together_expected_slots": "repro.analysis.theory",
    "lg": "repro.analysis.theory",
    "rendezvous_aggregation_bound": "repro.analysis.theory",
    "rendezvous_broadcast_bound": "repro.analysis.theory",
    "rendezvous_expected_slots": "repro.analysis.theory",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
