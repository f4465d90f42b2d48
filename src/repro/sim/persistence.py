"""Trace persistence: save and reload :class:`EventTrace` as JSON lines.

Debugging a distributed protocol usually means staring at what actually
went over the air.  These helpers serialize a trace to a stable JSONL
format (one channel-event per line) so a failing run can be captured
once and inspected — or diffed against another run — offline.

Payload encoding: the library's message dataclasses
(:mod:`repro.core.messages`) and JSON primitives round-trip exactly;
any other payload is stored as its ``repr`` under an ``"opaque"``
marker (readable, not reloadable as the original object).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Any

from repro.sim.actions import Envelope
from repro.sim.trace import ChannelEvent, EventTrace


@functools.cache
def _message_types() -> dict[str, type]:
    """The protocol message dataclasses by name, imported on first use.

    Importing :mod:`repro.core.messages` runs ``repro.core``'s
    ``__init__`` and so loads every runner; the simulator layer waits
    for the first encode or decode instead of paying that at import.
    """
    import repro.core.messages as messages

    return {
        cls.__name__: cls
        for cls in (
            messages.InitPayload,
            messages.CountPayload,
            messages.ClusterSizePayload,
            messages.MediatorAnnouncePayload,
            messages.ValueReportPayload,
            messages.AckPayload,
        )
    }


def _encode_payload(payload: Any) -> Any:
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return {"kind": "literal", "value": payload}
    if type(payload).__name__ in _message_types() and dataclasses.is_dataclass(payload):
        return {
            "kind": "message",
            "type": type(payload).__name__,
            "fields": _encode_fields(dataclasses.asdict(payload)),
        }
    return {"kind": "opaque", "repr": repr(payload)}


def _encode_fields(fields: dict[str, Any]) -> dict[str, Any]:
    encoded = {}
    for name, value in fields.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            encoded[name] = value
        else:
            encoded[name] = repr(value)
    return encoded


def _decode_payload(data: Any) -> Any:
    kind = data.get("kind")
    if kind == "literal":
        return data["value"]
    if kind == "message":
        cls = _message_types()[data["type"]]
        return cls(**data["fields"])
    return OpaquePayload(data.get("repr", "<unknown>"))


@dataclasses.dataclass(frozen=True, slots=True)
class OpaquePayload:
    """Placeholder for a payload that could not be reconstructed."""

    text: str


def event_to_dict(event: ChannelEvent) -> dict[str, Any]:
    """One channel event as a JSON-ready dictionary."""
    return {
        "slot": event.slot,
        "channel": event.channel,
        "broadcasters": list(event.broadcasters),
        "listeners": list(event.listeners),
        "jammed": sorted(event.jammed_nodes),
        "winner": (
            None
            if event.winner is None
            else {
                "sender": event.winner.sender,
                "payload": _encode_payload(event.winner.payload),
            }
        ),
    }


def event_from_dict(data: dict[str, Any]) -> ChannelEvent:
    """Inverse of :func:`event_to_dict`."""
    winner = None
    if data.get("winner") is not None:
        winner = Envelope(
            sender=data["winner"]["sender"],
            payload=_decode_payload(data["winner"]["payload"]),
        )
    return ChannelEvent(
        slot=data["slot"],
        channel=data["channel"],
        broadcasters=tuple(data["broadcasters"]),
        listeners=tuple(data["listeners"]),
        winner=winner,
        jammed_nodes=frozenset(data.get("jammed", ())),
    )


def save_trace(trace: EventTrace, path: str | Path) -> int:
    """Write the trace as JSON lines; returns the event count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in trace:
            handle.write(json.dumps(event_to_dict(event)) + "\n")
            count += 1
    return count


def load_trace(path: str | Path) -> EventTrace:
    """Read a JSONL trace written by :func:`save_trace`."""
    trace = EventTrace()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            trace.record(event_from_dict(json.loads(line)))
    return trace
