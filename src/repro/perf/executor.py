"""The deterministic process-pool mapper and the jobs default.

Design constraints, in priority order:

1. **Determinism.**  Work items are fully specified (function + seeded
   arguments) before anything is dispatched, and results are
   reassembled in submission order — a parallel run returns exactly
   the list a serial run would.  Nothing about scheduling, worker
   count, or completion order can leak into the results.
2. **Graceful degradation.**  Parallelism is an optimization, never a
   requirement: with ``jobs=1``, a single work item, an unpicklable
   function (lambdas, closures), or an environment where process
   pools cannot start, the map silently runs in-process and returns
   the same values.
3. **No new dependencies.**  Everything here is standard library.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

#: Process-wide default for ``jobs=None``; see :func:`set_default_jobs`.
_DEFAULT_JOBS = 1


def set_default_jobs(jobs: int | None) -> None:
    """Set the worker count used when a trial loop passes ``jobs=None``.

    ``None`` or ``0`` selects ``os.cpu_count()``.  The CLI's ``--jobs``
    flag calls this once at startup so every experiment trial loop and
    campaign in the process fans out without threading a parameter
    through 29 ``run()`` signatures.
    """
    global _DEFAULT_JOBS
    if jobs is None or jobs == 0:
        _DEFAULT_JOBS = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError("jobs must be non-negative")
    else:
        _DEFAULT_JOBS = jobs


def default_jobs() -> int:
    """The current process-wide default worker count."""
    return _DEFAULT_JOBS


def resolve_jobs(jobs: int | None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count.

    ``None`` defers to the process default (see :func:`set_default_jobs`),
    ``0`` means ``os.cpu_count()``, and any positive value is itself.
    """
    if jobs is None:
        return _DEFAULT_JOBS
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    return jobs


def pool_fingerprint() -> dict[str, Any]:
    """Ambient facts about this process's fan-out environment.

    Recorded by the determinism sanitizer (``repro sanitize``) alongside
    each capture, so a divergence report names the conditions it was
    produced under: pool start method, core count, the process-wide
    jobs default, the interpreter version, and the hash seed.  None of
    these may influence results — that is exactly what the sanitizer
    checks — so they appear only in the report's provenance, never in
    the bit-diffed records.
    """
    import multiprocessing
    import sys

    return {
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or "default",
        "cpu_count": os.cpu_count() or 1,
        "default_jobs": _DEFAULT_JOBS,
        "python": sys.version.split()[0],
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def _picklable(payload: Any) -> bool:
    """Whether *payload* survives pickling (the pool's transport)."""
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def _init_worker(backend_name: str) -> None:
    """Propagate the parent's default engine backend into a pool worker.

    Per-process defaults (``set_default_backend``, i.e. the CLI's
    ``--backend``) don't cross the process boundary on spawn-start
    platforms, so the pool snapshots the parent's default at fan-out
    time.  A failure here is never swallowed: the parent already
    validated the name, so an error can only mean a broken worker, and
    a worker silently left on another backend would return numbers
    from a different random stream (``vector`` draws from numpy) than
    a serial run.  The raise breaks the pool and :func:`pmap_trials`
    raises with it.
    """
    from repro.sim.backends import set_default_backend

    set_default_backend(backend_name)


def pmap_trials(
    fn: Callable[..., Any],
    argument_tuples: Sequence[tuple],
    *,
    jobs: int | None = None,
) -> list[Any]:
    """Map *fn* over argument tuples, in order, optionally in parallel.

    Returns ``[fn(*args) for args in argument_tuples]`` — exactly, and
    in exactly that order.  With an effective worker count above one,
    the calls are fanned across a :class:`ProcessPoolExecutor`; results
    are reassembled in submission order so downstream statistics are
    byte-identical to the serial loop.  The first work item that raises
    propagates its exception, as the serial loop's would.

    Falls back to the in-process loop whenever parallelism cannot be
    both safe and worthwhile: an effective ``jobs`` of one, fewer than
    two work items, an *fn* or argument that cannot be pickled, or a
    platform where a process pool cannot be created.
    """
    items = [tuple(args) for args in argument_tuples]
    workers = min(resolve_jobs(jobs), len(items))
    if workers <= 1:
        return [fn(*args) for args in items]
    if not _picklable((fn, items)):
        return [fn(*args) for args in items]
    from repro.sim.backends import default_backend_name

    try:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(default_backend_name(),),
        )
    except (ImportError, NotImplementedError, OSError, ValueError):
        return [fn(*args) for args in items]
    with executor:
        futures = [executor.submit(fn, *args) for args in items]
        return [future.result() for future in futures]
