"""R4 — protocol isolation: a node's only handle on the world is ``NodeView``.

The paper's model gives a node nothing but its local channel labels, its
identity, ``(n, c, k)``, and private coins.  In code that contract is
the :class:`repro.sim.protocol.NodeView`.  A module that *defines* a
:class:`~repro.sim.protocol.Protocol` subclass is node-algorithm code
and must therefore never import the engine, the channel world-model, the
observability layer (:mod:`repro.obs` sees engine-side ground
truth — physical channels, global winner identity — which a node must
not consult), or the performance layer (:mod:`repro.perf` is harness
machinery for fanning out whole trials) — the runner harnesses that
build engines and count their runs live in sibling ``runners`` modules.  Inside a protocol class body, reaching into another object's
underscore-prefixed attributes is flagged for the same reason: it is how
engine internals (collision state, physical channel maps) leak into a
node's decisions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Modules a protocol-defining module may never import.  ``repro.perf``
#: is harness-side machinery like ``repro.obs``: a node that could fan
#: out process pools or consult executor state would be reaching outside
#: its NodeView.  The check is prefix-based, so every ``repro.obs``
#: submodule is covered — including ``repro.obs.metrics``: a protocol
#: that incremented a counter or read a gauge would be publishing to /
#: consulting global state no radio node has.  ``repro.sim.backends``
#: is the engine-selection layer (its kernels see every node's state at
#: once), and ``numpy`` is banned directly: a protocol's columnar form
#: is *compiled by* a backend from the protocol's declared exports —
#: the node algorithm itself stays scalar, per-slot, NodeView-only.
FORBIDDEN_MODULES = (
    "repro.sim.engine",
    "repro.sim.channels",
    "repro.sim.backends",
    "repro.obs",
    "repro.perf",
    "numpy",
)

#: Engine/world names re-exported by ``repro.sim`` — importing them from
#: the package facade is the same violation.
FORBIDDEN_SIM_NAMES = frozenset(
    {
        "ChannelAssignment",
        "DynamicSchedule",
        "Engine",
        "Network",
        "RunResult",
        "build_engine",
        "make_views",
    }
)


@register
class ProtocolIsolationRule(Rule):
    """Keep node algorithms behind the ``NodeView`` boundary."""

    rule_id = "R4"
    title = "protocol-isolation"
    invariant = (
        "nodes see only local labels, (n, c, k), and private coins "
        "(paper Section 2); protocol code never touches the engine or "
        "the physical channel map"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.in_protocol_layer():
            return
        protocol_classes = _protocol_classes(module.tree)
        if protocol_classes:
            yield from self._check_imports(module)
        for class_node in protocol_classes:
            yield from self._check_underscore_access(module, class_node)

    def _check_imports(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(FORBIDDEN_MODULES):
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"protocol module imports {alias.name}; node "
                            "algorithms see the world only through NodeView "
                            "— move engine-driving code to a runners module",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith(FORBIDDEN_MODULES):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"protocol module imports from {node.module}; node "
                        "algorithms see the world only through NodeView — "
                        "move engine-driving code to a runners module",
                    )
                elif node.module == "repro.sim":
                    for alias in node.names:
                        if alias.name in FORBIDDEN_SIM_NAMES:
                            yield self.finding(
                                module,
                                node.lineno,
                                node.col_offset,
                                f"protocol module imports {alias.name} from "
                                "repro.sim; node algorithms see the world "
                                "only through NodeView",
                            )

    def _check_underscore_access(
        self, module: ModuleContext, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                continue
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"protocol class {class_node.name} reaches into a foreign "
                f"private attribute '{attr}'; a node's only handle is its "
                "NodeView",
            )


def _protocol_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Classes subclassing ``Protocol`` (transitively, within the module)."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    protocol_names: set[str] = set()
    found: list[ast.ClassDef] = []
    changed = True
    while changed:
        changed = False
        for node in classes:
            if node.name in protocol_names:
                continue
            for base in node.bases:
                name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None
                )
                if name == "Protocol" or name in protocol_names:
                    protocol_names.add(node.name)
                    found.append(node)
                    changed = True
                    break
    return found
