"""E29 — the distribution tree's shape (Lemma 5's object, measured).

COGCOMP's phase four walks the distribution tree COGCAST leaves behind;
its O(n) step bound is shape-independent, but the tree's *shape* still
explains the constants: epidemic trees are shallow (later infections
attach all over the frontier, not in a chain), and on crowded spectra
the source's early broadcasts create large clusters.

Sweep ``n`` and record height, mean depth, max out-degree, and the
largest first-slot cluster — the ``k_i`` quantities from Theorem 10's
accounting.  Expected shape: height grows slowly (logarithmically-ish)
while n grows 16x, and ``sum(k_i) <= n`` holds exactly (it is the
theorem's bookkeeping identity).
"""

from __future__ import annotations

from collections import Counter

from repro.assignment import shared_core
from repro.core import DistributionTree, run_local_broadcast
from repro.experiments.harness import Table, mean, trial_seeds
from repro.experiments.registry import register
from repro.sim import Network
from repro.sim.rng import derive_rng


def measure_tree(n: int, c: int, k: int, seed: int) -> dict[str, float]:
    """Tree-shape statistics from one completed broadcast."""
    rng = derive_rng(seed, "assignment")
    assignment = shared_core(n, c, k, rng).shuffled_labels(rng)
    network = Network.static(assignment, validate=False)
    result = run_local_broadcast(
        network, seed=seed, max_slots=500_000, require_completion=True
    )
    tree = DistributionTree.from_parents(0, result.parents)
    # One informer broadcasts on one channel per slot, so the nodes that
    # share an (informed slot, parent) pair are one (r, c)-cluster.
    clusters = Counter(
        (slot, parent)
        for slot, parent in zip(result.informed_slots, result.parents)
        if parent is not None
    )
    per_slot: dict[int, int] = {}
    for (slot, _), size in clusters.items():
        per_slot[slot] = max(per_slot.get(slot, 0), size)
    depths = [tree.depth(node) for node in range(n)]
    degrees = [len(tree.children(node)) for node in range(n)]
    assert sum(clusters.values()) == n - 1
    return {
        "height": tree.height(),
        "mean_depth": sum(depths) / n,
        "max_degree": max(degrees),
        "sum_ki": sum(per_slot.values()),
        "largest_cluster": max(clusters.values()),
    }


@register(
    "E29",
    "Distribution-tree shape vs n (Lemma 5 / Theorem 10 accounting)",
    "Lemma 5's tree is shallow and wide; Theorem 10's sum(k_i) <= n "
    "bookkeeping holds exactly",
)
def run(trials: int = 10, seed: int = 0, fast: bool = False) -> Table:
    c, k = 16, 4
    ns = [32, 128] if fast else [32, 64, 128, 256, 512]
    trials = min(trials, 3) if fast else trials

    rows = []
    for n in ns:
        seeds = trial_seeds(seed, f"E29-{n}", trials)
        stats = [measure_tree(n, c, k, s) for s in seeds]
        rows.append(
            (
                n,
                c,
                k,
                round(mean([s["height"] for s in stats]), 1),
                round(mean([s["mean_depth"] for s in stats]), 1),
                round(mean([s["max_degree"] for s in stats]), 1),
                round(mean([s["largest_cluster"] for s in stats]), 1),
                round(mean([s["sum_ki"] for s in stats]), 1),
                n - 1,
            )
        )
    return Table(
        experiment_id="E29",
        title="Distribution-tree shape across n",
        claim="height grows slowly while n grows 16x; sum(k_i) never "
        "exceeds n (Theorem 10's identity)",
        columns=(
            "n",
            "c",
            "k",
            "height",
            "mean depth",
            "max degree",
            "largest cluster",
            "sum k_i",
            "n - 1",
        ),
        rows=tuple(rows),
        notes=(
            "sum k_i <= n - 1 by the theorem's accounting (every "
            "non-source node is in exactly one cluster); the sub-linear "
            "height column is why epidemic trees aggregate fast"
        ),
    )
