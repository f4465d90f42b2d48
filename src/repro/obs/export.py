"""Export span data as Chrome-trace / Perfetto JSON timelines.

:func:`chrome_trace` renders a :class:`~repro.obs.spans.SpanProbe` into
the Trace Event Format that ``chrome://tracing``, Perfetto, and
speedscope all load: phase and cluster spans become complete (``"X"``)
events, inform edges become instant (``"i"``) events, and metadata
(``"M"``) events name the tracks.  One simulation slot maps to one
microsecond of trace time, so slot arithmetic survives into the viewer
unchanged.

The format is validated locally (:func:`validate_chrome_trace`) so CI
can assert an exported artifact is loadable without a browser in the
loop; ``repro obs export-trace`` and ``make trace-demo`` are the
user-facing entry points.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.spans import Span, SpanProbe

#: Track (thread) ids used in exported traces.
TRACK_PHASES = 0
TRACK_CLUSTERS = 1
TRACK_INFORMS = 2

_TRACK_NAMES = {
    TRACK_PHASES: "phases",
    TRACK_CLUSTERS: "clusters",
    TRACK_INFORMS: "informs",
}


def _metadata(name: str, tid: int, value: str) -> dict[str, Any]:
    return {
        "ph": "M",
        "name": name,
        "pid": 1,
        "tid": tid,
        "args": {"name": value},
    }


def _span_event(span: Span) -> dict[str, Any]:
    tid = TRACK_CLUSTERS if span.kind == "cluster" else TRACK_PHASES
    return {
        "ph": "X",
        "name": span.name,
        "cat": span.kind,
        "pid": 1,
        "tid": tid,
        "ts": span.start,
        "dur": max(1, span.duration),
        "args": dict(span.attrs, parent=span.parent),
    }


def chrome_trace(probe: SpanProbe, *, trace_name: str = "repro") -> dict[str, Any]:
    """Render *probe*'s spans and inform edges as a Chrome-trace document.

    Returns a JSON-ready dict with a ``traceEvents`` list: metadata
    events naming the process and tracks, one complete event per span,
    and one instant event per distribution-tree inform edge in informing
    order, slot then child (timestamps in microseconds, one slot = 1 µs).
    """
    events: list[dict[str, Any]] = [
        _metadata("process_name", TRACK_PHASES, trace_name)
    ]
    for tid in sorted(_TRACK_NAMES):
        events.append(_metadata("thread_name", tid, _TRACK_NAMES[tid]))
    for span in probe.spans():
        events.append(_span_event(span))
    for edge in sorted(probe.edges.values(), key=lambda e: (e.slot, e.child)):
        events.append(
            {
                "ph": "i",
                "name": f"inform {edge.parent}->{edge.child}",
                "cat": "inform",
                "pid": 1,
                "tid": TRACK_INFORMS,
                "ts": edge.slot,
                "s": "t",
                "args": {
                    "parent": edge.parent,
                    "child": edge.child,
                    "channel": edge.channel,
                    "slot": edge.slot,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: Any) -> list[str]:
    """Check a trace document against the Trace Event Format; list problems.

    An empty list means every event is well-formed: known phase letter,
    required fields per phase type, numeric timestamps and durations.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: ph is {ph!r}, expected X, i, or M")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"{where}: pid/tid must be integers")
        if ph == "M":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: metadata event needs an args object")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: ts is {ts!r}, expected non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur <= 0:
                problems.append(f"{where}: dur is {dur!r}, expected positive number")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}: instant scope is {event.get('s')!r}")
    return problems


def write_chrome_trace(
    path: str | Path, probe: SpanProbe, *, trace_name: str = "repro"
) -> int:
    """Validate and write *probe*'s trace to *path*; return the event count.

    Raises :class:`ValueError` if the rendered document fails
    :func:`validate_chrome_trace` (a bug guard — rendering should never
    produce an invalid trace).
    """
    doc = chrome_trace(probe, trace_name=trace_name)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError("invalid chrome trace: " + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")
    return len(doc["traceEvents"])
