"""Registry of all experiments, keyed by experiment id (E01..E16).

Experiment modules self-register at import time via :func:`register`;
:func:`load_all` imports the whole suite.  DESIGN.md section 5 is the
authoritative map from paper claim to experiment id.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.experiments.harness import ExperimentSpec, Table

_REGISTRY: dict[str, ExperimentSpec] = {}

_MODULES = [
    "repro.experiments.e01_cogcast_scaling_n",
    "repro.experiments.e02_cogcast_large_c",
    "repro.experiments.e03_cogcast_k_sweep",
    "repro.experiments.e04_broadcast_head_to_head",
    "repro.experiments.e05_cogcomp_scaling",
    "repro.experiments.e06_aggregation_head_to_head",
    "repro.experiments.e07_bipartite_hitting",
    "repro.experiments.e08_complete_hitting",
    "repro.experiments.e09_reduction",
    "repro.experiments.e10_global_label_bound",
    "repro.experiments.e11_hopping_vs_cogcast",
    "repro.experiments.e12_overlap_patterns",
    "repro.experiments.e13_dynamic_channels",
    "repro.experiments.e14_jamming",
    "repro.experiments.e15_aggregation_bound",
    "repro.experiments.e16_decay_backoff",
    "repro.experiments.e17_fault_tolerance",
    "repro.experiments.e18_message_overhead",
    "repro.experiments.e19_jamming_equivalence",
    "repro.experiments.e20_seeded_rendezvous",
    "repro.experiments.e21_determinism_tradeoff",
    "repro.experiments.e22_adversarial_search",
    "repro.experiments.e23_stack_composition",
    "repro.experiments.e24_collision_ablation",
    "repro.experiments.e25_epidemic_stages",
    "repro.experiments.e26_whitespace_worlds",
    "repro.experiments.e27_gossip_scaling",
    "repro.experiments.e28_staggered_activation",
    "repro.experiments.e29_tree_shape",
]


def register(
    experiment_id: str, title: str, claim: str
) -> Callable[[Callable[..., Table]], Callable[..., Table]]:
    """Decorator: register ``run(trials, seed, fast) -> Table``."""

    def decorator(run: Callable[..., Table]) -> Callable[..., Table]:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id}")
        if not run.__doc__:
            run.__doc__ = f"{experiment_id} — {title}.\n\nClaim: {claim}."
        _REGISTRY[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id, title=title, claim=claim, run=run
        )
        return run

    return decorator


def load_all() -> dict[str, ExperimentSpec]:
    """Import every experiment module and return the full registry."""
    for module in _MODULES:
        importlib.import_module(module)
    return dict(sorted(_REGISTRY.items()))


def get(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment (loading the suite on first use)."""
    if experiment_id not in _REGISTRY:
        load_all()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
