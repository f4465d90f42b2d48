"""E25 — the two-stage epidemic structure of COGCAST's analysis (§4).

The proof of Theorem 4 splits the execution at ``c/2`` informed nodes:

- **stage one** is "a typical exponential doubling process" — each
  informed node independently informs someone with probability
  ``Ω(k/c)`` per slot, so the informed set grows geometrically;
- **stage two** flips to the uninformed side: each straggler is
  informed with probability ``Ω(k/c)`` per slot, a coupon-collector
  tail of ``O((c/k)·lg n)``.

This experiment measures the structure directly from each run's
informed slots: the slot at which ``c/2`` nodes are informed, the
completion slot, and the per-slot growth factor within stage one
(should be a constant > 1, i.e. genuine doubling behaviour, not
additive growth).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.assignment import shared_core
from repro.core import run_local_broadcast
from repro.experiments.harness import Table, mean, trial_seeds
from repro.experiments.registry import register
from repro.sim import Network
from repro.sim.rng import derive_rng


def measure_stages(n: int, c: int, k: int, seed: int) -> dict[str, float]:
    """Stage-one end slot, total slots, and stage-one growth factor."""
    rng = derive_rng(seed, "assignment")
    assignment = shared_core(n, c, k, rng).shuffled_labels(rng)
    network = Network.static(assignment, validate=False)
    result = run_local_broadcast(
        network, seed=seed, max_slots=500_000, require_completion=True
    )
    # The growth curve: (slot, informed count after it, the source
    # included) for every slot that informed someone.
    slots = sorted(slot for slot in result.informed_slots if slot >= 0)
    curve = [(slot, 1 + bisect_right(slots, slot)) for slot in sorted(set(slots))]
    threshold = max(2, c // 2)
    stage1_end = next(slot for slot, count in curve if count >= threshold)

    # Mean multiplicative growth per informing slot within stage one.
    growth_factors = []
    previous = 1
    for slot, count in curve:
        if previous >= threshold:
            break
        growth_factors.append(count / previous)
        previous = count
    growth = (
        sum(growth_factors) / len(growth_factors) if growth_factors else 1.0
    )
    return {
        "stage1": stage1_end + 1,
        "total": result.slots,
        "growth": growth,
    }


@register(
    "E25",
    "COGCAST's two epidemic stages (exponential spread, then the tail)",
    "Section 4's analysis structure: geometric growth to c/2 informed, "
    "then an O((c/k) lg n) straggler tail",
)
def run(trials: int = 15, seed: int = 0, fast: bool = False) -> Table:
    settings = [(64, 16, 4)] if fast else [(64, 16, 4), (128, 16, 4), (256, 32, 4)]
    trials = min(trials, 5) if fast else trials

    rows = []
    for n, c, k in settings:
        seeds = trial_seeds(seed, f"E25-{n}-{c}-{k}", trials)
        measurements = [measure_stages(n, c, k, s) for s in seeds]
        stage1 = mean([m["stage1"] for m in measurements])
        total = mean([m["total"] for m in measurements])
        growth = mean([m["growth"] for m in measurements])
        rows.append(
            (
                n,
                c,
                k,
                round(stage1, 1),
                round(total, 1),
                round(stage1 / total, 2),
                round(growth, 2),
            )
        )
    return Table(
        experiment_id="E25",
        title="Stage split and growth factor of the epidemic",
        claim="stage one is a small fraction of the run and multiplicative "
        "(growth factor well above 1 per informing slot)",
        columns=(
            "n",
            "c",
            "k",
            "slots to c/2",
            "total slots",
            "stage1 frac",
            "growth/slot",
        ),
        rows=tuple(rows),
        notes=(
            "growth/slot is the mean multiplicative jump of the informed "
            "count across stage-one informing slots — values near or "
            "above 1.5 are the 'exponential doubling process' of the proof"
        ),
    )
