"""Rewrite digests.json: the rendered tables ``reproduce`` checks against.

Run from the root of a checkout after a change that is meant to alter
an experiment's table::

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads


def main() -> None:
    reproduce = workloads.Reproduce(
        seed=workloads.DIGEST_SEED, size="full", scratch=Path(".")
    )
    reproduce.import_modules()
    tables = {
        experiment_id: [
            workloads.digest(spec.run(seed=seed, fast=True).render())
            for seed in reproduce.seeds(experiment_id)
        ]
        for experiment_id, spec in reproduce.specs.items()
    }
    document = {"seed": workloads.DIGEST_SEED, "fast": True, "tables": tables}
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
