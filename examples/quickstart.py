#!/usr/bin/env python3
"""Quickstart: local broadcast and data aggregation in a cognitive radio network.

Builds a 32-node single-hop network where every node can tune 8 channels
and every pair is guaranteed to overlap on at least 2, then:

1. runs COGCAST (epidemic local broadcast) and prints how the message
   spread, slot by slot;
2. runs COGCOMP (data aggregation) and prints the phase budget and the
   aggregate the source computed.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import assignment, core, sim
from repro.analysis import cogcast_slot_bound


def main() -> None:
    n, c, k = 32, 8, 2
    seed = 2015  # PODC'15

    # -- Build the network -------------------------------------------------
    # A "shared core" band: k channels everyone holds, plus c - k private
    # channels per node.  shuffled_labels() gives each node its own
    # arbitrary channel numbering — the paper's local-label model.
    rng = random.Random(seed)
    plan = assignment.shared_core(n, c, k, rng).shuffled_labels(rng)
    network = sim.Network.static(plan)
    print(f"network: n={n} nodes, c={c} channels each, pairwise overlap >= {k}")
    print(f"channel universe: {len(plan.universe)} physical channels\n")

    # -- Local broadcast (COGCAST) -----------------------------------------
    trace = sim.EventTrace()
    result = core.run_local_broadcast(
        network, source=0, seed=seed, max_slots=10_000, body="hello, spectrum!",
        trace=trace,
    )
    print("COGCAST local broadcast")
    print(f"  completed: {result.completed} in {result.slots} slots")
    print(f"  Theorem 4 budget: {cogcast_slot_bound(n, c, k)} slots")

    from repro.analysis import ascii_curve
    from repro.sim import informed_curve

    curve = informed_curve(trace, root=0)
    print("  epidemic growth (informed nodes per slot):")
    rendered = ascii_curve(
        [(float(slot), float(count)) for slot, count in curve],
        width=32, x_label="slot", y_label="informed",
    )
    print("    " + rendered.replace("\n", "\n    "))

    tree = core.DistributionTree.from_parents(0, result.parents)
    print(f"  distribution tree: height {tree.height()}, "
          f"source has {len(tree.children(0))} direct children\n")

    # -- Data aggregation (COGCOMP) ----------------------------------------
    values = [float(node * node) for node in range(n)]
    agg = core.run_data_aggregation(
        network, values, source=0, seed=seed + 1,
        aggregator=core.SumAggregator(),
    )
    print("COGCOMP data aggregation (sum of node values)")
    print(f"  completed: {agg.completed}")
    print(f"  phases: one={agg.phase1_slots}, two={agg.phase2_slots}, "
          f"three={agg.phase3_slots}, four={agg.phase4_slots} slots")
    print(f"  total: {agg.total_slots} slots")
    print(f"  aggregate at source: {agg.value} (expected {sum(values)})")
    assert agg.value == sum(values)


if __name__ == "__main__":
    main()
