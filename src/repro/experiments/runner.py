"""Deterministic multiprocessing fan-out for experiment sweeps.

Every sweep in the paper's evaluation (monitor on/off, iozone thread
counts, link speeds, scheduler variants) is a list of *independent*
simulation runs: each point builds its own :class:`~repro.cluster.Cluster`
from an explicit seed and shares no state with its neighbours.  That
makes the sweep embarrassingly parallel — but only if parallelism cannot
change results.  This module guarantees that:

* results come back in *submission order*, never completion order;
* each worker process runs a point from the same picklable arguments the
  serial path would use, so a point's trace is byte-identical whether it
  ran in-process, or as one of ``--jobs N`` workers;
* ``jobs <= 1`` (the default) short-circuits to a plain in-process loop —
  no pool, no pickling — which keeps tests and debugging simple.

Per-point seeds come from :func:`derive_seed`, a stable CRC32 mix of the
base seed and the point's label; nothing here ever consults wall-clock
time or process ids.
"""

import os
import zlib

__all__ = ["available_jobs", "derive_seed", "run_points", "stats"]

# Parent-process sweep totals for the metrics registry (worker processes
# keep their own copies; only the coordinating process's counts matter).
_STATS = {"sweeps": 0, "points_run": 0, "parallel_sweeps": 0}


def stats():
    """Cumulative sweep-runner counters (registered as ``sysprof.runner``)."""
    return dict(_STATS)


def derive_seed(base_seed, label):
    """A deterministic per-point seed from a base seed and a point label.

    Stable across processes and Python runs (unlike ``hash()``, which is
    randomized per interpreter).  ``label`` may be any object with a
    stable ``repr`` — ints, strings, and tuples of those are typical.
    """
    digest = zlib.crc32(repr(label).encode("utf-8"))
    return (int(base_seed) * 1_000_003 + digest) % (2**31 - 1)


def available_jobs():
    """Worker processes to use when the caller asks for 'all of them'."""
    return os.cpu_count() or 1


def run_points(fn, points, jobs=1):
    """Run ``fn(point)`` for every point, returning results in order.

    ``fn`` must be a module-level (picklable) callable when ``jobs > 1``;
    each point is passed as a single argument, so bundle multi-argument
    work into tuples or dataclasses.  ``jobs=None`` means one worker per
    CPU.  With one job (or one point) everything runs in-process.
    """
    points = list(points)
    if jobs is None:
        jobs = available_jobs()
    jobs = max(1, int(jobs))
    _STATS["sweeps"] += 1
    _STATS["points_run"] += len(points)
    if jobs == 1 or len(points) <= 1:
        return [fn(point) for point in points]
    _STATS["parallel_sweeps"] += 1
    # Imported here: the metrics registry loads this module into every
    # scenario process, and only a parallel sweep needs the pool.
    import multiprocessing

    # fork (where available) inherits the imported modules, which keeps
    # worker start-up cheap; spawn is the portable fallback.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    context = multiprocessing.get_context(method)
    with context.Pool(processes=min(jobs, len(points))) as pool:
        # Pool.map preserves submission order regardless of which worker
        # finishes first — the determinism contract of this module.
        return pool.map(fn, points, chunksize=1)
