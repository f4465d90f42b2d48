"""Per-module analysis context shared by all lint rules.

One :class:`ModuleContext` wraps a parsed source file: its AST, its
import bindings (so rules can resolve ``rnd.random()`` back to the
``random`` module through aliases), and the suppression comments that
silence individual findings.

Suppression syntax
------------------

- ``# lint: disable=R1`` (or ``=R1,R4`` or ``=all``) on a line silences
  those rules for that line; on a line of its own it silences the line
  below it.
- ``# lint: disable-file=R6`` anywhere in the file silences the rule for
  the whole file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePath

_DISABLE_LINE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")
_DISABLE_FILE = re.compile(r"#\s*lint:\s*disable-file=([A-Za-z0-9_,\s]+)")

#: Directories (package-relative) that hold node-algorithm modules; rule
#: R4's isolation boundary.
PROTOCOL_LAYER_DIRS = frozenset({"core", "baselines", "backoff", "apps"})

#: A lazy package's export table: exported name -> defining module.
EXPORT_TABLE = "_EXPORTS"


def _split_rules(spec: str) -> set[str]:
    return {part.strip().upper() for part in spec.split(",") if part.strip()}


@dataclass
class ModuleContext:
    """Everything a rule needs to analyse one module.

    Attributes
    ----------
    path: the file path as given to the linter (used in findings).
    source: full source text.
    tree: the parsed :class:`ast.Module`.
    module_aliases: local name -> imported module dotted path
        (``import random as rnd`` binds ``rnd -> random``).
    from_imports: local name -> (module, original name)
        (``from random import Random as R`` binds ``R -> ("random",
        "Random")``).
    """

    path: str
    source: str
    tree: ast.Module
    module_aliases: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    _line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    _file_suppressions: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        """Parse *source* and collect imports plus suppression comments."""
        tree = ast.parse(source, filename=path)
        context = cls(path=path, source=source, tree=tree)
        context._collect_imports()
        context._collect_suppressions()
        return context

    # ------------------------------------------------------------------
    # Imports
    # ------------------------------------------------------------------

    def _collect_imports(self) -> None:
        self._collect_export_table()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def _collect_export_table(self) -> None:
        """Read a lazy package's ``_EXPORTS`` table (:mod:`repro._lazy`).

        ``"f": "pkg.mod"`` binds like ``from pkg.mod import f``; an entry
        naming its own module, ``"sim": "repro.sim"``, like ``import
        repro.sim as sim``.
        """
        for node in self.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Dict)
                and [getattr(target, "id", None) for target in node.targets]
                == [EXPORT_TABLE]
            ):
                continue
            for key, value in zip(node.value.keys, node.value.values):
                name = getattr(key, "value", None)
                module = getattr(value, "value", None)
                if not (isinstance(name, str) and isinstance(module, str)):
                    continue
                if module.rpartition(".")[2] == name:
                    self.module_aliases[name] = module
                else:
                    self.from_imports[name] = (module, name)

    def aliases_of(self, module: str) -> set[str]:
        """Local names bound to *module* itself (``import m``/``as x``)."""
        return {
            name
            for name, target in self.module_aliases.items()
            if target == module or target.startswith(module + ".")
        }

    def names_from(self, module: str) -> dict[str, str]:
        """Local name -> original name for ``from module import ...``."""
        return {
            name: original
            for name, (source_module, original) in self.from_imports.items()
            if source_module == module
        }

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------

    def _collect_suppressions(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (token.start[0], token.string, token.start[1])
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, SyntaxError):  # pragma: no cover - defensive
            comments = []
        for line, text, col in comments:
            file_match = _DISABLE_FILE.search(text)
            if file_match:
                self._file_suppressions |= _split_rules(file_match.group(1))
                continue
            line_match = _DISABLE_LINE.search(text)
            if line_match:
                rules = _split_rules(line_match.group(1))
                # A comment alone on its line shields the line below it.
                own_line = self.source.splitlines()[line - 1]
                target = line + 1 if own_line.strip().startswith("#") else line
                self._line_suppressions.setdefault(target, set()).update(rules)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether findings for *rule* at *line* are silenced."""
        rule = rule.upper()
        if rule in self._file_suppressions or "ALL" in self._file_suppressions:
            return True
        at_line = self._line_suppressions.get(line, set())
        return rule in at_line or "ALL" in at_line

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def package_parts(self) -> tuple[str, ...]:
        """Path components after the last ``repro`` directory, if any.

        ``src/repro/core/cogcast.py`` -> ``("core", "cogcast.py")``;
        returns ``()`` when the file is not under a ``repro`` directory.
        """
        parts = PurePath(self.path).parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                return parts[index + 1 :]
        return ()

    def in_protocol_layer(self) -> bool:
        """True when the module lives in a protocol-defining package."""
        parts = self.package_parts()
        return len(parts) >= 2 and parts[0] in PROTOCOL_LAYER_DIRS

    def in_backend_layer(self) -> bool:
        """True when the module is an engine backend (``repro.sim.backends``).

        Backend kernels are engine-side code with a relaxed R1 carve-out
        (seeded ``numpy.random.default_rng`` streams); nothing in the
        protocol layer may import them (rule R4).
        """
        parts = self.package_parts()
        return len(parts) >= 2 and parts[:2] == ("sim", "backends")
