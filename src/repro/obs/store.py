"""The content-addressed run store: ingest telemetry, index by key.

A :class:`RunStore` turns flat JSONL telemetry shards into an
append-only, deduplicated index addressed by the provenance triple
**(config hash, seed, code version)** — the substrate the ROADMAP's
campaign-service result cache builds on.  Layout on disk::

    <store>/
      manifest.json                    # compact queryable index
      objects/<config_hash>/<seed>/<code_version>.json

Each object file holds one *stored run*: the primary telemetry record
(``kind`` run / experiment / campaign) plus the anomaly records that
followed it in its shard, paired by :func:`group_runs` (the join
``obs explain`` uses too).  Ingest is **first-write-wins**:
re-ingesting a shard (or a bitwise-identical re-run) finds the object
file already present and counts a deduplication instead of rewriting,
so the store never mutates what it has accepted — append-only by
construction.

The manifest is a single JSON document mapping ``run_id``
(``<config_hash>/<seed>/<code_version>``) to a compact entry of the
queryable fields (protocol, network shape, slots, outcome, backend,
execution path, anomaly count, the provenance config).  It is
rewritten atomically (temp file + ``os.replace``) at the end of each
ingest and read whole by :mod:`repro.obs.query`, so queries never
touch the object files unless they aggregate embedded metric
snapshots.

Records without a provenance block (telemetry written before stamping
existed) cannot be content-addressed; ingest counts and reports them
as skipped rather than guessing an address.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.provenance import run_key
from repro.obs.telemetry import TelemetryError, read_telemetry

#: Version stamped into the manifest (bumped on layout changes).
STORE_SCHEMA_VERSION = 1

#: Telemetry kinds that anchor a stored run (anomalies attach to them).
PRIMARY_KINDS = ("run", "experiment", "campaign")


@dataclass
class IngestReport:
    """What one :meth:`RunStore.ingest` call did, for the CLI to print."""

    #: New stored runs written by this ingest.
    ingested: int = 0
    #: Records whose store key already had an object (first-write-wins).
    deduplicated: int = 0
    #: Anomaly records attached to the primary record they followed.
    anomalies_attached: int = 0
    #: Primary records skipped because they carry no provenance block.
    unstamped: int = 0
    #: Anomaly records whose primary record is missing or unstamped.
    orphan_anomalies: int = 0
    #: Shard files read.
    files: int = 0

    def render(self) -> str:
        """One-line human summary (``repro obs ingest`` output)."""
        parts = [
            f"ingested {self.ingested} runs"
            f" ({self.deduplicated} deduplicated,"
            f" {self.anomalies_attached} anomalies attached)"
            f" from {self.files} files"
        ]
        if self.unstamped:
            parts.append(f"{self.unstamped} unstamped records skipped")
        if self.orphan_anomalies:
            parts.append(f"{self.orphan_anomalies} orphan anomalies skipped")
        return "; ".join(parts)


def group_runs(
    records: Iterable[Mapping[str, Any]],
) -> list[tuple[Mapping[str, Any] | None, list[Mapping[str, Any]]]]:
    """Pair each primary record with the anomaly records that follow it.

    The join rule: an anomaly belongs to the most recent primary record
    (a kind in :data:`PRIMARY_KINDS`) before it in the stream, whatever
    either record's seed.  The runners write a run's record and then
    flush its anomalies, so on their files this is the run the anomaly
    was observed in.  Anomalies before the first primary record form a
    leading group whose primary record is ``None``.  Returns
    ``(primary record, anomalies)`` pairs in stream order.
    """
    groups: list[tuple[Mapping[str, Any] | None, list[Mapping[str, Any]]]] = []
    for record in records:
        kind = record.get("kind")
        if kind in PRIMARY_KINDS:
            groups.append((record, []))
        elif kind == "anomaly":
            if not groups:
                groups.append((None, []))
            groups[-1][1].append(record)
    return groups


def _safe_component(text: str) -> str:
    """A path-safe spelling of one key component.

    Code versions (``ab12cd34ef56-dirty``, ``pkg-1.0.0``) and config
    hashes are already safe; this guards against exotic characters in
    hand-built records so a hostile shard cannot escape the store root.
    """
    return "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in text
    ) or "_"


def run_id_of(key: tuple[str, int, str]) -> str:
    """The store id ``<config_hash>/<seed>/<code_version>`` of a key."""
    digest, seed, version = key
    return f"{_safe_component(digest)}/{seed}/{_safe_component(version)}"


def manifest_entry(
    record: Mapping[str, Any], anomalies: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """The compact queryable manifest entry for one stored run.

    Copies the scalar fields queries filter and group by — identity
    (kind, protocol / experiment / campaign), network shape, outcome,
    execution path (backend, ``fast_path``, ``vector_fallback_reason``)
    — plus the provenance config and key, the anomaly count, and flags
    for the heavier attachments (metrics / spans) that stay in the
    object file.
    """
    provenance = record.get("provenance") or {}
    entry: dict[str, Any] = {
        "kind": record.get("kind"),
        "seed": record.get("seed"),
        "config_hash": provenance.get("config_hash"),
        "code_version": provenance.get("code_version"),
        "config": dict(provenance.get("config") or {}),
        "anomalies": len(anomalies),
        "has_metrics": record.get("metrics") is not None,
        "has_spans": record.get("spans") is not None,
    }
    for name in (
        "protocol",
        "n",
        "c",
        "k",
        "universe",
        "slots",
        "outcome",
        "backend",
        "fast_path",
        "vector_fallback_reason",
        "experiment",
        "trials",
        "fast",
        "rows",
        "campaign",
        "point",
        "mean",
    ):
        if name in record:
            entry[name] = record[name]
    return entry


class RunStore:
    """An on-disk content-addressed index of telemetry records.

    Construction only records the root path; the directory is created
    on first ingest, so pointing a query at a store that was never
    written reports an empty manifest instead of littering the
    filesystem.
    """

    def __init__(self, root: str | Path) -> None:
        """Bind the store to *root* (created lazily on first ingest)."""
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest index document."""
        return self.root / "manifest.json"

    def object_path(self, key: tuple[str, int, str]) -> Path:
        """Path of the object file addressed by *key*."""
        digest, seed, version = key
        return (
            self.root
            / "objects"
            / _safe_component(digest)
            / str(seed)
            / f"{_safe_component(version)}.json"
        )

    def manifest(self) -> dict[str, Any]:
        """Load the manifest (``{"schema": ..., "entries": {...}}``).

        A store that was never ingested into yields an empty manifest.
        """
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return {"schema": STORE_SCHEMA_VERSION, "entries": {}}
        if (
            not isinstance(document, dict)
            or document.get("schema") != STORE_SCHEMA_VERSION
            or not isinstance(document.get("entries"), dict)
        ):
            raise TelemetryError(
                f"{self.manifest_path}: not a run-store manifest "
                f"(expected schema {STORE_SCHEMA_VERSION})"
            )
        return document

    def entries(self) -> list[dict[str, Any]]:
        """Every manifest entry, ``run_id`` included, sorted by id."""
        manifest = self.manifest()
        result = []
        for run_id in sorted(manifest["entries"]):
            entry = dict(manifest["entries"][run_id])
            entry["run_id"] = run_id
            result.append(entry)
        return result

    def load(self, run_id: str) -> dict[str, Any]:
        """The full stored run ``{"record": ..., "anomalies": [...]}``."""
        path = self.root / "objects" / f"{run_id}.json"
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def ingest(
        self, paths: Iterable[str | Path], *, strict: bool = False
    ) -> IngestReport:
        """Index every record of every shard in *paths*; return a report.

        Shards are read with :func:`repro.obs.telemetry.read_telemetry`
        (``strict=True`` raises on a malformed line; the default skips
        it), and :func:`group_runs` attaches each anomaly to its run.
        Anomalies of an unstamped primary record, or of none, count as
        orphans.  New keys are written as object files; existing keys
        count as deduplications and are left untouched.
        """
        report = IngestReport()
        manifest = self.manifest()
        entries: dict[str, Any] = manifest["entries"]
        for path in paths:
            report.files += 1
            for record, anomalies in group_runs(read_telemetry(path, strict=strict)):
                key = None if record is None else run_key(record)
                if key is None:
                    if record is not None:
                        report.unstamped += 1
                    report.orphan_anomalies += len(anomalies)
                    continue
                target = self.object_path(key)
                if target.exists():
                    report.deduplicated += 1
                    continue
                target.parent.mkdir(parents=True, exist_ok=True)
                payload = {
                    "schema": STORE_SCHEMA_VERSION,
                    "record": record,
                    "anomalies": anomalies,
                }
                with open(target, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                    handle.write("\n")
                entries[run_id_of(key)] = manifest_entry(record, anomalies)
                report.ingested += 1
                report.anomalies_attached += len(anomalies)
        self._write_manifest(manifest)
        return report

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        """Atomically replace the manifest document (temp + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": STORE_SCHEMA_VERSION,
            "entries": {
                run_id: manifest["entries"][run_id]
                for run_id in sorted(manifest["entries"])
            },
        }
        scratch = self.manifest_path.with_suffix(".json.tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True, indent=1)
            handle.write("\n")
        os.replace(scratch, self.manifest_path)
