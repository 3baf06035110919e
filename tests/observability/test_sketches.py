"""QuantileSketch accuracy, merging, wire rows, and the GPA SketchStore."""

import math
import random
import sys

import pytest

from repro.core.encoding import pack_count_runs, unpack_count_runs
from repro.observability.sketches import (
    SKETCH_PAYLOAD_WIDTH,
    QuantileSketch,
    SketchStore,
)


def _exact_quantile(values, q):
    """Nearest-rank mirror of QuantileSketch.quantile's rank walk."""
    ordered = sorted(values)
    return ordered[math.ceil(q * (len(ordered) - 1))]


def _lognormal_samples(n=20000, seed=5):
    rng = random.Random(seed)
    return [rng.lognormvariate(-6.0, 1.0) for _ in range(n)]


def test_relative_error_bound():
    values = _lognormal_samples()
    sketch = QuantileSketch(alpha=0.01)
    for value in values:
        sketch.add(value)
    for q in (0.5, 0.9, 0.95, 0.99):
        exact = _exact_quantile(values, q)
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) / exact <= 0.02, "q={}".format(q)


def test_merge_equals_concatenated_stream():
    values = _lognormal_samples(n=6000, seed=7)
    whole = QuantileSketch()
    parts = [QuantileSketch() for _ in range(3)]
    for i, value in enumerate(values):
        whole.add(value)
        parts[i % 3].add(value)
    merged = parts[0].copy()
    merged.merge(parts[1]).merge(parts[2])
    assert merged.count == whole.count
    assert merged.sum_value == pytest.approx(whole.sum_value)
    for q in (0.5, 0.9, 0.99):
        assert merged.quantile(q) == pytest.approx(whole.quantile(q))


def test_merge_alpha_mismatch_rejected():
    with pytest.raises(ValueError, match="alpha"):
        QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


def test_empty_and_zero_handling():
    sketch = QuantileSketch()
    assert sketch.quantile(0.5) is None
    assert sketch.mean == 0.0
    sketch.add(0.0).add(-3.0).add(1.0)
    assert sketch.zero_count == 2
    assert sketch.count == 3
    assert sketch.quantile(0.0) == 0.0  # zeros sort first
    assert sketch.quantile(1.0) == pytest.approx(1.0, rel=0.02)


def test_collapse_bounds_buckets_and_keeps_tail():
    sketch = QuantileSketch(alpha=0.01, max_buckets=32)
    values = _lognormal_samples(n=5000, seed=9)
    for value in values:
        sketch.add(value)
    assert len(sketch.buckets) <= 32
    assert sketch.collapses > 0
    # Collapsing only blurs the low quantiles; the tail stays accurate.
    exact = _exact_quantile(values, 0.99)
    assert abs(sketch.quantile(0.99) - exact) / exact <= 0.02


def test_count_run_codec_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        buckets = {
            rng.randrange(-500, 500): rng.randrange(1, 10**6)
            for _ in range(rng.randrange(0, 60))
        }
        base, payload = pack_count_runs(buckets)
        assert unpack_count_runs(base, payload) == buckets
    assert pack_count_runs({}) == (0, "")
    assert unpack_count_runs(0, "") == {}


def test_row_roundtrip_preserves_quantiles():
    values = _lognormal_samples(n=4000, seed=11)
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    row = sketch.to_row("nodeA", "query", "latency", 1.0, 2.0)
    assert len(row[-1]) <= SKETCH_PAYLOAD_WIDTH
    record = {
        "node": row[0], "request_class": row[1], "metric": row[2],
        "window_start": row[3], "window_end": row[4], "count": row[5],
        "zero_count": row[6], "min_value": row[7], "max_value": row[8],
        "sum_value": row[9], "alpha": row[10], "base_index": row[11],
        "buckets": row[12],
    }
    rebuilt = QuantileSketch.from_row(record)
    for q in (0.5, 0.9, 0.99):
        assert rebuilt.quantile(q) == sketch.quantile(q)


def test_to_row_collapses_to_fit_width():
    sketch = QuantileSketch(alpha=0.005, max_buckets=4096)
    rng = random.Random(17)
    for _ in range(5000):
        sketch.add(rng.lognormvariate(0.0, 4.0))
    row = sketch.to_row("n", "c", "latency", 0.0, 1.0, width=120)
    assert len(row[-1]) <= 120
    assert row[5] == sketch.count  # no samples lost to the squeeze


def _record(node, cls, metric, end, values):
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    row = sketch.to_row(node, cls, metric, end - 1.0, end)
    return {
        "node": row[0], "request_class": row[1], "metric": row[2],
        "window_start": row[3], "window_end": row[4], "count": row[5],
        "zero_count": row[6], "min_value": row[7], "max_value": row[8],
        "sum_value": row[9], "alpha": row[10], "base_index": row[11],
        "buckets": row[12],
    }


def test_store_merges_and_filters():
    store = SketchStore()
    store.ingest(_record("a", "query", "latency", 1.0, [0.001] * 10))
    store.ingest(_record("a", "query", "latency", 2.0, [0.010] * 10))
    store.ingest(_record("b", "query", "latency", 2.0, [0.010] * 10))
    store.ingest(_record("a", "query", "qdepth", 2.0, [4.0] * 10))
    assert store.classes() == ["query"]
    assert store.nodes() == ["a", "b"]
    assert store.merged("query").count == 30
    assert store.merged("query", node="b").count == 10
    # `since` keeps only windows ending at/after the cutoff.
    recent = store.merged("query", since=1.5)
    assert recent.count == 20
    assert recent.quantile(0.5) == pytest.approx(0.010, rel=0.02)
    assert store.merged("nope").count == 0
    assert store.latest_window_end() == 2.0
    assert store.stats() == {"rows_ingested": 4, "series": 3}


def test_store_clear_keeps_cumulative_counter():
    store = SketchStore(history=2)
    for end in (1.0, 2.0, 3.0):
        store.ingest(_record("a", "query", "latency", end, [0.001]))
    key = ("a", "query", "latency")
    assert len(store.series[key]) == 2  # bounded history
    store.clear()
    assert store.series == {}
    assert store.rows_ingested == 3


# ----------------------------------------------------------------------
# update_many: the batch kernel (numpy, imported on first use, or the
# fallback loop)
# ----------------------------------------------------------------------

def test_update_many_matches_scalar_adds_exactly_for_counts():
    import random

    rng = random.Random(17)
    values = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
    values += [0.0, -3.0, 1e-12]  # zero-bucket cases
    batch = QuantileSketch(alpha=0.02)
    batch.update_many(values)
    scalar = QuantileSketch(alpha=0.02)
    for value in values:
        scalar.add(value)
    assert batch.count == scalar.count
    assert batch.zero_count == scalar.zero_count
    assert batch.min_value == scalar.min_value
    assert batch.max_value == scalar.max_value
    assert abs(batch.sum_value - scalar.sum_value) <= 1e-6 * scalar.sum_value
    # Bucket indices may differ by one ulp-induced slot; quantiles must
    # agree within the sketch's own accuracy guarantee.
    for q in (0.5, 0.9, 0.99):
        expected = scalar.quantile(q)
        got = batch.quantile(q)
        assert abs(got - expected) <= 2 * 0.02 * expected + 1e-12


def test_update_many_python_fallback_equivalent(monkeypatch):
    values = [0.5, 2.0, 2.0, 8.0, 0.0, 40.0]
    vectorized = QuantileSketch()
    vectorized.update_many(values)
    # A None entry makes ``import numpy`` raise ImportError.
    monkeypatch.setitem(sys.modules, "numpy", None)
    fallback = QuantileSketch()
    fallback.update_many(values)
    assert fallback.count == vectorized.count
    assert fallback.zero_count == vectorized.zero_count
    assert fallback.min_value == vectorized.min_value
    assert fallback.max_value == vectorized.max_value
    for q in (0.5, 0.99):
        assert abs(fallback.quantile(q) - vectorized.quantile(q)) <= \
            2 * 0.01 * fallback.quantile(q) + 1e-12


def test_update_many_empty_and_zero_only():
    sketch = QuantileSketch()
    sketch.update_many([])
    assert sketch.count == 0
    sketch.update_many([0.0, -1.0])
    assert sketch.count == 2
    assert sketch.zero_count == 2
    assert sketch.min_value == 0.0
    assert sketch.max_value == 0.0
    assert sketch.quantile(0.5) == 0.0


def test_update_many_respects_collapse_bound():
    sketch = QuantileSketch(alpha=0.001, max_buckets=8)
    sketch.update_many([1.5 ** i for i in range(64)])
    assert len(sketch.buckets) <= 8
    assert sketch.collapses > 0
    assert sketch.count == 64


def test_update_many_rejects_matrix_input():
    pytest.importorskip("numpy")
    with pytest.raises(ValueError):
        QuantileSketch().update_many([[1.0, 2.0], [3.0, 4.0]])
