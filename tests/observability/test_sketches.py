"""QuantileSketch accuracy, merging, wire rows, and the GPA SketchStore."""

import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    FormatRegistry,
    decode_frame,
    encode_frame,
    pack_count_runs,
    unpack_count_runs,
)
from repro.core.lpa import SKETCH_FORMAT
from repro.observability.sketches import (
    MIN_TRACKABLE,
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


def _as_record(row):
    """A ``to_row`` tuple as the decoded record dict a tier ingests."""
    return dict(zip(FormatRegistry().register(*SKETCH_FORMAT).names, row))


def test_row_roundtrip_preserves_quantiles():
    values = _lognormal_samples(n=4000, seed=11)
    sketch = QuantileSketch()
    for value in values:
        sketch.add(value)
    row = sketch.to_row("nodeA", "query", "latency", 1.0, 2.0)
    assert len(row[-1]) <= SKETCH_PAYLOAD_WIDTH
    rebuilt = QuantileSketch.from_row(_as_record(row))
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
    return _as_record(sketch.to_row(node, cls, metric, end - 1.0, end))


def test_store_merges_and_filters():
    store = SketchStore()
    store.ingest(_record("a", "query", "latency", 1.0, [0.001] * 10), 1.0)
    store.ingest(_record("a", "query", "latency", 2.0, [0.010] * 10), 2.0)
    store.ingest(_record("b", "query", "latency", 2.0, [0.010] * 10), 2.0)
    store.ingest(_record("a", "query", "qdepth", 2.0, [4.0] * 10), 2.0)
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
        store.ingest(_record("a", "query", "latency", end, [0.001]), end)
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


# ----------------------------------------------------------------------
# extend: the exact batch form of an add loop
# ----------------------------------------------------------------------

#: Values that exercise every branch of ``add``: the zero bucket (zeros,
#: negatives, NaN, values at or below MIN_TRACKABLE), wide and narrow
#: positive ranges, and subnormals.
_SKETCH_VALUES = st.one_of(
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(allow_nan=True, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, -1.0, math.nan, MIN_TRACKABLE, MIN_TRACKABLE / 2,
        MIN_TRACKABLE * 1.0000001, 5e-324,
    ]),
)

#: Values an ``add`` refuses: ``float()`` raises on the first two, and an
#: infinity's bucket index overflows.
_REFUSED = st.sampled_from(["not a number", None, math.inf])


def _sketch_state(sketch):
    return (
        list(sketch.buckets.items()), sketch.count, sketch.zero_count,
        sketch.sum_value.hex(), sketch.min_value.hex(),
        sketch.max_value.hex(), sketch.collapses, sketch._floor,
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    alpha=st.sampled_from((0.01, 0.05, 0.3)),
    max_buckets=st.integers(2, 8),
    prior=st.lists(_SKETCH_VALUES, max_size=12),
    batch=st.lists(_SKETCH_VALUES, max_size=40),
    refused=st.one_of(st.none(), st.tuples(st.integers(0, 40), _REFUSED)),
)
def test_extend_equals_an_add_loop(alpha, max_buckets, prior, batch, refused):
    if refused is not None:
        position, bad = refused
        batch = list(batch)
        batch.insert(min(position, len(batch)), bad)
    looped = QuantileSketch(alpha=alpha, max_buckets=max_buckets)
    extended = QuantileSketch(alpha=alpha, max_buckets=max_buckets)
    for value in prior:
        looped.add(value)
        extended.add(value)
    error = None
    try:
        for value in batch:
            looped.add(value)
    except (TypeError, ValueError, OverflowError) as exc:
        error = type(exc)
    if error is None:
        assert extended.extend(batch) is extended
    else:
        with pytest.raises(error):
            extended.extend(batch)
    assert _sketch_state(extended) == _sketch_state(looped)
    # The add loop's sketch keeps working from the same state.
    looped.add(1.0)
    extended.extend([1.0])
    assert _sketch_state(extended) == _sketch_state(looped)


def test_extend_collapses_mid_batch_like_add():
    values = [1.5 ** i for i in range(64)] + [1e-3, 0.0, 2.0]
    looped = QuantileSketch(alpha=0.001, max_buckets=4)
    for value in values:
        looped.add(value)
    extended = QuantileSketch(alpha=0.001, max_buckets=4).extend(values)
    assert extended.collapses == looped.collapses > 0
    assert _sketch_state(extended) == _sketch_state(looped)


def test_update_many_fallback_is_extend(monkeypatch):
    values = [0.5, 2.0, 2.0, 8.0, 0.0, 40.0, math.nan, -1.0]
    monkeypatch.setitem(sys.modules, "numpy", None)
    fallback = QuantileSketch(max_buckets=3).update_many(values)
    assert _sketch_state(fallback) == _sketch_state(
        QuantileSketch(max_buckets=3).extend(values)
    )


# ----------------------------------------------------------------------
# wire-form windows: a from_row window keeps its run string until a
# change parses it
# ----------------------------------------------------------------------

def _eager(record):
    """The window parsed into a dict at once (the reference answer)."""
    table = unpack_count_runs(record["base_index"], record["buckets"])
    sketch = QuantileSketch(alpha=record["alpha"], max_buckets=max(256, len(table)))
    sketch.buckets.update(table)
    sketch.zero_count = record["zero_count"]
    sketch.count = record["count"]
    sketch.sum_value = record["sum_value"]
    if sketch.count:
        sketch.min_value = record["min_value"]
        sketch.max_value = record["max_value"]
    return sketch


_Q_GRID = (0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0)

#: Latencies and the zero bucket's values (values near the float
#: maximum are test_quantile_past_the_float_range_answers_max_value's).
_WINDOW_VALUES = st.one_of(
    st.floats(min_value=1e-6, max_value=1e3),
    st.sampled_from([0.0, -1.0, math.nan, MIN_TRACKABLE]),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    alpha=st.sampled_from((0.01, 0.05, 0.3)),
    max_buckets=st.integers(2, 300),
    values=st.lists(_WINDOW_VALUES, max_size=60),
    other_values=st.lists(_WINDOW_VALUES, max_size=30),
    other_buckets=st.integers(2, 8),
    width=st.integers(1, 80),
)
@example(alpha=0.01, max_buckets=256, values=[], other_values=[0.5],
         other_buckets=2, width=10)
@example(alpha=0.01, max_buckets=256, values=[0.0, -1.0], other_values=[],
         other_buckets=2, width=10)
@example(alpha=0.01, max_buckets=3, values=[1.5 ** i for i in range(40)],
         other_values=[1e-3, 2.0, 0.0], other_buckets=2, width=5)
def test_wire_window_answers_like_a_parsed_one(
    alpha, max_buckets, values, other_values, other_buckets, width
):
    row = QuantileSketch(alpha=alpha, max_buckets=max_buckets).extend(values).to_row(
        "n0", "rpc", "latency", 0.0, 1.0
    )
    record = _as_record(row)
    wire = QuantileSketch.from_row(record)
    eager = _eager(record)
    other = QuantileSketch(alpha=alpha, max_buckets=other_buckets).extend(other_values)

    # Reads that change nothing.
    assert repr(wire) == repr(eager)
    assert [wire.quantile(q) for q in _Q_GRID] == [eager.quantile(q) for q in _Q_GRID]
    assert (wire.count, wire.zero_count, wire.sum_value.hex(), wire.min_value,
            wire.max_value) == (eager.count, eager.zero_count, eager.sum_value.hex(),
                                eager.min_value, eager.max_value)
    assert wire.to_row("n0", "rpc", "latency", 0.0, 1.0) == row
    for into in (QuantileSketch(alpha=alpha), other):
        assert _sketch_state(into.copy().merge(wire)) == _sketch_state(
            into.copy().merge(eager))
    # A copy is a sketch of its own: squeezing it to ``width`` collapses
    # it like the parsed copy.
    duplicate, reference = wire.copy(), eager.copy()
    assert duplicate.to_row("n", "c", "m", 0.0, 1.0, width=width) == reference.to_row(
        "n", "c", "m", 0.0, 1.0, width=width)
    assert _sketch_state(duplicate) == _sketch_state(reference)
    # None of those reads changed the window.
    assert wire.to_row("n0", "rpc", "latency", 0.0, 1.0) == row
    assert _sketch_state(wire.copy()) == _sketch_state(eager.copy())

    # Writes behave like writes to the parsed sketch.
    wire.add(0.003)
    eager.add(0.003)
    assert _sketch_state(wire) == _sketch_state(eager)
    for write in (lambda s: s.merge(other), lambda s: s.extend(other_values)):
        fresh, reference = QuantileSketch.from_row(record), _eager(record)
        write(fresh)
        write(reference)
        assert _sketch_state(fresh) == _sketch_state(reference)
        assert fresh.to_row("n", "c", "m", 0.0, 1.0, width=width) == reference.to_row(
            "n", "c", "m", 0.0, 1.0, width=width)
        assert _sketch_state(fresh) == _sketch_state(reference)


def test_from_row_refuses_runs_no_sketch_could_send():
    record = _as_record(QuantileSketch().extend([0.001, 0.002]).to_row(
        "n0", "rpc", "latency", 0.0, 1.0))
    for payload in ("x:1", "1:2", "0:1,0:2", "0:0", "0:01", "0:1,", "0:1;1:1",
                    " 0:1", "0:1_0", "0:١", "0:1:1"):
        with pytest.raises(ValueError):
            QuantileSketch.from_row(dict(record, buckets=payload))
    for alpha in (0.0, 1.0, -0.5, math.nan, 1e-17):
        with pytest.raises(ValueError):
            QuantileSketch.from_row(dict(record, alpha=alpha))
    assert QuantileSketch.from_row(dict(record, buckets="", base_index=7)).to_row(
        "n0", "rpc", "latency", 0.0, 1.0)[11:] == (0, "")


def test_quantile_past_the_float_range_answers_max_value():
    """A bucket whose estimate overflows answers the window's
    ``max_value``: near the float maximum ``gamma ** index`` raised
    OverflowError, and a little lower the estimate read inf."""
    for value in (1.7637650858193227e308, 1.7e308):
        assert QuantileSketch().add(value).quantile(0.99) == value
    in_range = QuantileSketch().add(1e300)
    index = math.ceil(math.log(1e300) * in_range._inv_log_gamma)
    assert in_range.quantile(0.99) == 2.0 * in_range.gamma ** index / (
        in_range.gamma + 1.0)


def test_from_row_keeps_bucket_indices_in_the_float_range():
    """A row based past ±35,487 (alpha 0.01) is refused; a valid base
    whose gaps run past the range answers its ``max_value``."""
    record = _as_record(QuantileSketch().extend([0.001, 0.002]).to_row(
        "n0", "rpc", "latency", 0.0, 1.0))
    for base in (35_488, -35_488, 10**6, -(10**6)):
        with pytest.raises(ValueError, match="float range"):
            QuantileSketch.from_row(dict(record, base_index=base))
    QuantileSketch.from_row(dict(record, base_index=-35_487))
    window = QuantileSketch.from_row(
        dict(record, base_index=35_000, buckets="0:1,1000:1"))
    assert window.quantile(1.0) == window.max_value == 0.002


def test_stored_windows_keep_their_wire_form():
    """Each stored window keeps its run string, not a dict of ints: rows
    decoded, stored and folded into a rollup retain at most 2 KiB each,
    where a parsed table of about 100 buckets retains about 8 KB."""
    windows = 200
    fmt = FormatRegistry().register(*SKETCH_FORMAT)
    rng = random.Random(5)
    rows = []
    for window in range(windows):
        sketch = QuantileSketch().extend(
            rng.lognormvariate(math.log(0.002), 0.5) for _ in range(256))
        rows.append(sketch.to_row("r0n{}".format(window % 8), "rpc", "latency",
                                  0.1 * window, 0.1 * (window + 1)))
    blob = encode_frame(fmt, rows)
    registry = FormatRegistry()
    registry.adopt(fmt.describe())
    decode_frame(registry, blob)  # fill the format's name table once
    store = SketchStore(history=windows)
    rollup = QuantileSketch()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        decoded_fmt, decoded = decode_frame(registry, blob)
        for row in decoded:
            record = dict(zip(decoded_fmt.names, row))
            rollup.merge(store.ingest(record, record["window_end"]))
        del decoded, row, record
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert store.rows_ingested == windows
    assert rollup.count == 256 * windows
    assert retained / windows <= 2048
