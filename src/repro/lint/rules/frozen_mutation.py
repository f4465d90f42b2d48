"""R5 — no back-door mutation of frozen dataclasses.

The slot contract types (:class:`repro.sim.actions.SlotOutcome`,
:class:`repro.sim.actions.Envelope`, :class:`repro.sim.protocol.NodeView`,
...) are frozen on purpose: an outcome handed to ``end_slot`` is a
*record* of what physically happened, and a protocol that edits it (or
its ``NodeView``) is rewriting history.  Python has two escape hatches
around ``frozen=True``, and this rule flags both:

- ``object.__setattr__`` / ``object.__delattr__``.  The only sanctioned
  use is a dataclass initialising *itself* (``object.__setattr__(self,
  ...)`` inside ``__post_init__``), which this rule permits.
- a slot descriptor's ``__set__`` / ``__delete__``, as in
  ``type(outcome).__dict__["received"].__set__(outcome, None)``.  The
  only sanctioned use is :func:`repro.types.slot_init`, which builds a
  record's ``__init__`` from these setters; any reference to them
  outside ``repro/types.py`` is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name, is_name
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Descriptor methods that write or clear a slot behind the frozen guard.
_DESCRIPTOR_WRITES = ("__set__", "__delete__")


@register
class FrozenMutationRule(Rule):
    """Forbid ``object.__setattr__``/``__delattr__`` on foreign objects and
    slot-descriptor writes outside :func:`repro.types.slot_init`."""

    rule_id = "R5"
    title = "no-frozen-mutation"
    invariant = (
        "SlotOutcome, Envelope, and NodeView are immutable records of "
        "what physically happened; nothing may rewrite them after the fact"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        in_slot_init_module = module.package_parts() == ("types.py",)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr in _DESCRIPTOR_WRITES:
                if in_slot_init_module:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"descriptor {node.attr} writes a slot behind the frozen "
                    "guard; only repro.types.slot_init may build records "
                    "this way — construct a new value instead",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name not in ("object.__setattr__", "object.__delattr__"):
                continue
            if node.args and is_name(node.args[0], "self"):
                continue  # a frozen dataclass initialising itself
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{name} mutates a frozen instance from outside; frozen "
                "records (SlotOutcome, NodeView, ...) must never be "
                "rewritten — construct a new value instead",
            )
