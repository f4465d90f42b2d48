"""Merging per-worker JSONL telemetry into one validated stream.

A :class:`repro.obs.telemetry.TelemetrySink` is a single append-only
file handle, which worker processes must not share.  The supported
pattern is: give each worker its own file (via
:func:`worker_telemetry_path`), let it open a private sink there, and
after the pool drains, fold every worker file into the main sink with
:func:`merge_telemetry`.  Records are re-validated on the way through,
so a merged telemetry file is well-formed by construction, exactly
like a directly-written one.  Merge order is the caller's path order
(deterministic — pass paths in worker index order), never completion
order.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Iterable

from repro.obs.telemetry import VOLATILE_FIELDS, TelemetrySink, read_telemetry


def worker_telemetry_path(base: str | Path, index: int) -> Path:
    """The conventional per-worker telemetry file next to *base*.

    ``telemetry.jsonl`` becomes ``telemetry.worker3.jsonl`` for worker
    index 3 — distinct per worker, easy to glob, safe to merge.
    """
    base = Path(base)
    return base.with_name(f"{base.stem}.worker{index}{base.suffix}")


def merge_telemetry(
    paths: Iterable[str | Path],
    sink: TelemetrySink,
    *,
    strict: bool = True,
    remove: bool = False,
    dedupe: bool = False,
) -> int:
    """Fold worker telemetry files into *sink*; return records merged.

    Every record is re-validated by the sink's own ``emit``.  Missing
    files are skipped (a worker that ran no instrumented work writes
    nothing).  With ``remove=True`` each worker file is deleted after
    its records are safely through the sink.

    With ``dedupe=True`` the merge is provenance-aware: a record whose
    store key ``(config_hash, seed, code_version)`` *and* volatile-free
    content were already merged in this call is skipped — so merging
    overlapping shards (a retried worker, a re-run partition) yields
    each stored run once, matching the run store's first-write-wins
    semantics.  Records without a provenance block never dedupe, and
    distinct anomalies of one run survive because content is part of
    the key.
    """
    from repro.obs.provenance import canonical_json, run_key

    merged = 0
    seen: set[tuple[tuple[str, int, str], str]] = set()
    for path in paths:
        path = Path(path)
        if not path.exists():
            continue
        records: list[dict[str, Any]] = read_telemetry(path, strict=strict)
        for record in records:
            if dedupe:
                key = run_key(record)
                if key is not None:
                    content = canonical_json(
                        {
                            name: value
                            for name, value in record.items()
                            if name not in VOLATILE_FIELDS
                        }
                    )
                    fingerprint = (key, content)
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
            sink.emit(record)
            merged += 1
        if remove:
            os.remove(path)
    return merged


def merged_metrics(
    paths: Iterable[str | Path], *, strict: bool = True
) -> dict[str, Any]:
    """Consolidate the metric snapshots embedded in worker telemetry.

    Reads every record of every existing path (in the caller's path
    order — pass worker index order for determinism, exactly like
    :func:`merge_telemetry`) and merges each record's ``metrics``
    snapshot with :func:`repro.obs.metrics.merge_snapshots`: counters
    and histograms add, gauges keep the last write with folded
    extremes.  Workers that wrote no telemetry (or no snapshots)
    simply contribute nothing, so the serial-fallback and
    worker-failure paths of :func:`repro.perf.pmap_trials` merge
    cleanly.  Returns an empty-registry snapshot when no snapshots
    were found.
    """
    from repro.obs.metrics import merge_snapshots

    snapshots: list[dict[str, Any]] = []
    for path in paths:
        path = Path(path)
        if not path.exists():
            continue
        for record in read_telemetry(path, strict=strict):
            snapshot = record.get("metrics")
            if snapshot is not None:
                snapshots.append(snapshot)
    return merge_snapshots(snapshots)
