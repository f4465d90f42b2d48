"""Package namespaces that import their exports on first use (PEP 562).

A package lists its exports in one literal ``_EXPORTS`` table, each
name mapped to the module that defines it (a subpackage to itself)::

    _EXPORTS = {"Network": "repro.sim.channels", ...}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

so ``from repro.sim import Network`` imports ``repro.sim.channels`` and
nothing else.  The lint reads the same table as ``from`` imports.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package with table *exports*.

    ``__getattr__`` imports a name's module on first access and caches
    the name in *namespace* (the package's ``globals()``); ``__dir__``
    lists the loaded names and the table's.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module_name)
        if module_name != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
