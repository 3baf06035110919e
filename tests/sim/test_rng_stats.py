"""Random streams and online statistics."""

import hashlib
import importlib.util
import math
import statistics
import sys

import pytest
from hypothesis import given, strategies as st

from repro.sim import rng as builtin_hashed
from repro.sim import (
    Histogram,
    RandomStreams,
    RunningStat,
    TimeWeightedStat,
    exponential,
    pareto,
    percentile,
    poisson,
)


# ----------------------------------------------------------------------
# RandomStreams
# ----------------------------------------------------------------------

def test_same_seed_same_stream():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(1).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_named_streams_are_independent():
    streams = RandomStreams(1)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_identity_cached():
    streams = RandomStreams(3)
    assert streams.stream("x") is streams.stream("x")


def test_adding_consumer_does_not_shift_existing_stream():
    solo = RandomStreams(5)
    values = [solo.stream("arrivals").random() for _ in range(4)]
    shared = RandomStreams(5)
    shared.stream("new-consumer").random()
    assert [shared.stream("arrivals").random() for _ in range(4)] == values


def test_fork_creates_distinct_space():
    streams = RandomStreams(2)
    child = streams.fork("child")
    assert child.stream("x").random() != streams.stream("x").random()


#: The first draws of seed 42's "arrivals" stream, and of the "service"
#: stream of its "zone" fork: pinned so a change of hash source shows.
ARRIVALS_42 = [0.8456906195431324, 0.4981594694346053, 0.8382519850611663]
FORKED_SERVICE_42 = 0.8663144445887243


def test_streams_draw_the_same_through_the_hashlib_fallback(monkeypatch):
    """Streams hash names with the interpreter's builtin sha256 (no
    OpenSSL load); without it they fall back to ``hashlib`` and must draw
    the same numbers."""
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.find_spec("repro.sim.rng")
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    assert builtin_hashed.sha256 is not hashlib.sha256
    for module in (builtin_hashed, fallback):
        streams = module.RandomStreams(42)
        assert [streams.stream("arrivals").random() for _ in range(3)] == ARRIVALS_42
        assert streams.fork("zone").stream("service").random() == FORKED_SERVICE_42


def test_exponential_mean():
    rng = RandomStreams(11).stream("exp")
    values = [exponential(rng, 2.0) for _ in range(20000)]
    assert abs(statistics.mean(values) - 2.0) < 0.1


def test_exponential_validates_mean():
    rng = RandomStreams(1).stream("x")
    with pytest.raises(ValueError):
        exponential(rng, 0)


def test_poisson_mean_small_and_large():
    rng = RandomStreams(11).stream("poi")
    small = [poisson(rng, 3.0) for _ in range(5000)]
    large = [poisson(rng, 80.0) for _ in range(5000)]
    assert abs(statistics.mean(small) - 3.0) < 0.15
    assert abs(statistics.mean(large) - 80.0) < 1.0
    assert poisson(rng, 0) == 0


def test_pareto_bounded_below():
    rng = RandomStreams(11).stream("par")
    values = [pareto(rng, 2.5, 1.0) for _ in range(1000)]
    assert min(values) >= 1.0


# ----------------------------------------------------------------------
# RunningStat
# ----------------------------------------------------------------------

@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
def test_running_stat_matches_statistics_module(values):
    stat = RunningStat()
    for value in values:
        stat.add(value)
    assert stat.count == len(values)
    assert math.isclose(stat.mean, statistics.fmean(values), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        stat.variance, statistics.variance(values), rel_tol=1e-6, abs_tol=1e-4
    )
    assert stat.minimum == min(values)
    assert stat.maximum == max(values)


@given(
    st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=80),
    st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=80),
)
def test_running_stat_merge_equals_combined(a_values, b_values):
    merged = RunningStat()
    for value in a_values:
        merged.add(value)
    other = RunningStat()
    for value in b_values:
        other.add(value)
    merged.merge(other)
    combined = RunningStat()
    for value in a_values + b_values:
        combined.add(value)
    assert merged.count == combined.count
    assert math.isclose(merged.mean, combined.mean, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(merged.variance, combined.variance, rel_tol=1e-6, abs_tol=1e-3)


def test_running_stat_empty():
    stat = RunningStat()
    assert stat.mean == 0.0
    assert stat.variance == 0.0
    assert stat.as_dict()["count"] == 0


def test_merge_into_empty():
    stat = RunningStat()
    other = RunningStat()
    other.add(5.0)
    stat.merge(other)
    assert stat.mean == 5.0


# ----------------------------------------------------------------------
# TimeWeightedStat / Histogram / percentile
# ----------------------------------------------------------------------

def test_time_weighted_mean():
    stat = TimeWeightedStat(0.0, initial=0.0)
    stat.update(2.0, 10.0)  # 0 for [0,2)
    stat.update(4.0, 0.0)   # 10 for [2,4)
    assert math.isclose(stat.mean(4.0), 5.0)
    assert stat.maximum == 10.0


def test_time_weighted_rejects_backwards_time():
    stat = TimeWeightedStat(5.0)
    with pytest.raises(ValueError):
        stat.update(4.0, 1.0)


def test_histogram_binning_and_overflow():
    hist = Histogram([0, 1, 2, 4])
    for value in (0.5, 1.5, 1.7, 3.0, 9.0, -1.0):
        hist.add(value)
    assert hist.counts == [1, 2, 1]
    assert hist.overflow == 1
    assert hist.underflow == 1
    assert hist.total == 6


def test_histogram_quantile():
    hist = Histogram([0, 1, 2, 3])
    for value in (0.5, 1.5, 2.5):
        hist.add(value)
    assert hist.quantile(0.5) == 1.5
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_needs_two_edges():
    with pytest.raises(ValueError):
        Histogram([1])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
def test_percentile_bounds(values):
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
