"""API-surface and documentation-coverage tests.

Deliverable guardrails: every name exported via ``__all__`` must
resolve, every public module, class, and function must carry a
docstring, and every benchmark and example module imports against the
current API.  These tests fail the build when a new public item lands
undocumented, or when a name is deleted while a script still uses it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.assignment",
    "repro.backoff",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.games",
    "repro.lint",
    "repro.lint.analysis",
    "repro.lint.rules",
    "repro.obs",
    "repro.perf",
    "repro.sim",
    "repro.sim.backends",
    "repro.spectrum",
]


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The scripts outside ``src/`` that import the package: every
#: benchmark module and every example.
SCRIPTS = sorted([*ROOT.glob("benchmarks/bench_*.py"), *ROOT.glob("examples/*.py")])


def walk_modules() -> list[str]:
    names = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            if info.name.endswith("__main__"):
                continue  # importing it would invoke the CLI
            names.append(info.name)
    return sorted(set(names))


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"
    assert set(exported) <= set(dir(package)), f"{package_name}: dir() hides exports"


@pytest.mark.parametrize("module_name", walk_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", walk_modules())
def test_public_items_documented(module_name):
    """Every public class and function defined in the module has a doc."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name, item in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module_name:
            continue  # re-export; documented at its definition site
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented public items {undocumented}"


def test_public_classes_have_documented_methods():
    """Public methods on the flagship classes carry docstrings."""
    from repro.core import CogCast, CogComp, DistributionTree
    from repro.sim import Engine

    for cls in (CogCast, CogComp, DistributionTree, Engine):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


def test_version_exposed():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_script_imports(path, monkeypatch):
    """Each benchmark and example module loads against the current API.

    Loading runs only module-level code: examples guard their work
    behind ``__main__`` and benchmarks are test functions.
    """
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
