"""The experiment suite: every quantitative claim of the paper as a table.

See DESIGN.md section 5 for the claim-to-experiment map.  Run with::

    python -m repro list
    python -m repro run E01
    python -m repro run all --trials 20

or programmatically::

    from repro.experiments import get, load_all
    table = get("E01").run(trials=10, seed=0, fast=True)
    print(table.render())
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentSpec": "repro.experiments.harness",
    "Table": "repro.experiments.harness",
    "trial_seeds": "repro.experiments.harness",
    "get": "repro.experiments.registry",
    "load_all": "repro.experiments.registry",
    "register": "repro.experiments.registry",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
