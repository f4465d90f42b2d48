"""Run one ``repro`` CLI command traced, in this fresh interpreter.

Usage: ``python verb.py SPAN_FILE obs <verb> ...`` — the traced twin of
``python -m repro obs <verb> ...``.  It imports the CLI under an
``obs.cli.import`` span, wraps the traced callables (``tracing.py``),
runs the command through ``repro.cli.main`` and dumps its spans to
SPAN_FILE for the parent to adopt, whatever the exit status.
"""

from __future__ import annotations

import importlib
import sys

import tracing

#: Modules the read verbs import lazily; loaded before wrapping so that
#: their callables resolve to the wrappers.
READ_PATH_MODULES = ("repro.cli", "repro.obs.store", "repro.obs.query", "repro.obs.regress")


def main(argv: list[str]) -> int:
    span_file, command = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracer.unit = "verb"
    root = tracer.begin("obs.cli.import")
    for module in READ_PATH_MODULES:
        importlib.import_module(module)
    tracer.end(root)
    tracing.install(tracer)
    try:
        return sys.modules["repro.cli"].main(command)
    finally:
        tracer.unit = None
        tracing.dump(tracer, span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
