"""Quantile-sketch throughput and accuracy vs a naive exact baseline.

The diagnosis engine's online percentiles ride on ``QuantileSketch``
(log-bucketed, DDSketch-style).  Its pitch over the obvious
sorted-list-per-window baseline is twofold: constant memory with cheap
mergeability, and relative-error-bounded quantiles.  This benchmark
streams a lognormal latency population through both, then checks

* update throughput — scalar ``add`` and the vectorized ``update_many``
  batch path (numpy ``log``/``bincount``; see docs/performance.md) over
  the same sample population,
* merge throughput (window sketches folded into one, as the GPA does),
* p50/p90/p99 relative error vs the exact sorted-list answer, which
  must stay within the sketch's advertised 2% budget.

Results append to the ``trajectory`` list in ``BENCH_sketch.json`` at
the repo root; see docs/diagnosis.md ("Sketch accuracy") for how to
read it.
"""

import importlib.util
import math
import random
import time
from pathlib import Path

from repro.experiments.common import record_trajectory
from repro.observability.sketches import QuantileSketch

from benchmarks.conftest import SMOKE, report

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sketch.json"

#: Latency population size streamed through both structures.
N_SAMPLES = 50_000 if SMOKE else 1_000_000
#: Window sketches pre-built for the merge benchmark (one per eviction).
N_WINDOWS = 64 if SMOKE else 512
#: Merge passes timed over the window set.
MERGE_ROUNDS = 5 if SMOKE else 20
QUANTILES = (0.5, 0.9, 0.99)
#: The sketch's accuracy contract (alpha=0.01 -> ~1%; budget is 2%).
ERROR_BUDGET = 0.02
#: Smoke floors are sanity checks, not calibrated bounds — CI runners
#: are too noisy for tight perf assertions on short runs.
UPDATE_FLOOR = 50_000 if SMOKE else 200_000
#: Batch floor applies only when numpy is present (pure-Python fallback
#: is roughly scalar speed); the vectorized kernel clears it easily.
BATCH_FLOOR = 100_000 if SMOKE else 3_000_000
MERGE_FLOOR = 200 if SMOKE else 1_000
#: Records ingested per ``update_many`` call (an eviction window's worth).
BATCH_SIZE = 5_000


def _samples(n, seed=17):
    """Lognormal service times (ms-scale): a long-tailed latency shape."""
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 0.75) * 2e-3 for _ in range(n)]


def _exact_quantile(sorted_values, q):
    """The same rank convention the sketch tests mirror."""
    return sorted_values[math.ceil(q * (len(sorted_values) - 1))]


def test_sketch_throughput_and_accuracy():
    values = _samples(N_SAMPLES)

    # Update path: one long-lived sketch absorbing the whole stream.
    sketch = QuantileSketch()
    started = time.perf_counter()
    add = sketch.add
    for value in values:
        add(value)
    update_rate = N_SAMPLES / (time.perf_counter() - started)
    assert sketch.count == N_SAMPLES

    # Batch path: the vectorized update_many kernel over the same
    # population, fed in eviction-window-sized chunks.  update_many
    # imports numpy on first use; import it here so the import stays
    # out of the timed loop.
    has_numpy = importlib.util.find_spec("numpy") is not None
    if has_numpy:
        importlib.import_module("numpy")

    batch_sketch = QuantileSketch()
    started = time.perf_counter()
    for at in range(0, N_SAMPLES, BATCH_SIZE):
        batch_sketch.update_many(values[at:at + BATCH_SIZE])
    batch_rate = N_SAMPLES / (time.perf_counter() - started)
    assert batch_sketch.count == N_SAMPLES

    # The exact baseline the sketch is traded against: keep everything,
    # sort once per query.
    started = time.perf_counter()
    exact_sorted = sorted(values)
    exact_build_rate = N_SAMPLES / (time.perf_counter() - started)

    # Merge path: fold per-window sketches the way the GPA store does.
    per_window = max(1, N_SAMPLES // N_WINDOWS)
    windows = []
    for w in range(N_WINDOWS):
        chunk = QuantileSketch()
        for value in values[w * per_window:(w + 1) * per_window]:
            chunk.add(value)
        windows.append(chunk)
    best_merge = 0.0
    for _ in range(MERGE_ROUNDS):
        started = time.perf_counter()
        merged = QuantileSketch()
        for chunk in windows:
            merged.merge(chunk)
        best_merge = max(
            best_merge, N_WINDOWS / (time.perf_counter() - started)
        )

    # Accuracy: streaming and merged answers vs the exact ranks.
    errors = {}
    for q in QUANTILES:
        exact = _exact_quantile(exact_sorted, q)
        for label, estimator in (
            ("stream", sketch), ("batch", batch_sketch), ("merged", merged)
        ):
            rel = abs(estimator.quantile(q) - exact) / exact
            errors[(label, q)] = rel
            assert rel <= ERROR_BUDGET, (label, q, rel)

    assert update_rate >= UPDATE_FLOOR
    assert best_merge >= MERGE_FLOOR
    if has_numpy:
        assert batch_rate >= BATCH_FLOOR

    if not SMOKE:  # smoke runs never append to the recorded trajectory
        record_trajectory(BENCH_PATH, "sysprof-repro/bench-sketch/v2", {
            "samples": N_SAMPLES,
            "windows": N_WINDOWS,
            "alpha": sketch.alpha,
            "max_buckets": sketch.max_buckets,
            "batch_size": BATCH_SIZE,
            "throughput": {
                "updates_per_sec": round(batch_rate),
                "scalar_updates_per_sec": round(update_rate),
                "merges_per_sec": round(best_merge),
                "exact_sort_samples_per_sec": round(exact_build_rate),
            },
            "relative_error": {
                label: {
                    "p{}".format(int(q * 100)): round(errors[(label, q)], 5)
                    for q in QUANTILES
                }
                for label in ("stream", "batch", "merged")
            },
        })

    report(
        "quantile sketch (written to BENCH_sketch.json)",
        ("metric", "value"),
        [
            ("samples", "{:,}".format(N_SAMPLES)),
            ("updates/sec (scalar add)", "{:,}".format(round(update_rate))),
            ("updates/sec (update_many, batches of {})".format(BATCH_SIZE),
             "{:,}".format(round(batch_rate))),
            ("merges/sec ({} windows)".format(N_WINDOWS),
             "{:,}".format(round(best_merge))),
            ("exact sort samples/sec", "{:,}".format(round(exact_build_rate))),
        ] + [
            ("p{} rel err (stream / merged)".format(int(q * 100)),
             "{:.4f} / {:.4f}".format(
                 errors[("stream", q)], errors[("merged", q)]))
            for q in QUANTILES
        ],
        notes=(
            "error budget {:.0%} at alpha={}".format(
                ERROR_BUDGET, sketch.alpha
            ),
        ),
    )
