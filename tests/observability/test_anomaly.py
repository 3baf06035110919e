"""Robust z-score / rate anomaly detectors over recorded series."""

import pytest

from repro.observability.anomaly import (
    AnomalyMonitor,
    SeriesDetector,
    robust_zscore,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import TimeSeriesRecorder


def build(state, **recorder_kwargs):
    registry = MetricsRegistry()
    registry.gauge("sysprof.node.backend.cpu_busy", fn=lambda: state["busy"])
    registry.gauge("app.level", fn=lambda: state["level"])
    return TimeSeriesRecorder(registry, **recorder_kwargs)


def test_robust_zscore_basics():
    window = [10.0, 10.0, 11.0, 9.0, 10.0]
    assert robust_zscore(10.0, window) < 1.0
    assert robust_zscore(30.0, window) > 6.0
    # Flat window: only an actual departure is surprising.
    assert robust_zscore(5.0, [5.0] * 6) == 0.0
    assert robust_zscore(5.1, [5.0] * 6) == float("inf")
    assert robust_zscore(1.0, []) == 0.0


def test_robust_zscore_treats_rounding_jitter_as_flat():
    """A constant slope read back through a cumulative counter jitters
    in its last bits; that is no movement, and the window stays flat."""
    rate = 0.000346256
    window = [rate * (1.0 + k * 1e-14) for k in (0, 1, -1, 0, 2, 0, -2)]
    assert robust_zscore(rate * (1.0 - 3e-14), window) == 0.0
    assert robust_zscore(rate * 1.5, window) == float("inf")


def test_detector_validation():
    with pytest.raises(ValueError):
        SeriesDetector("x", mode="weird")
    with pytest.raises(ValueError):
        SeriesDetector("x", window=1)


def test_zscore_detector_fires_on_level_shift_with_hysteresis():
    state = {"busy": 0.0, "level": 10.0}
    recorder = build(state)
    detector = SeriesDetector("app.level", mode="zscore", window=8,
                              threshold=6.0, fire_after=2, clear_after=3)
    wobble = (10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.2, 9.9)
    transitions = []
    tick = 0
    for value in wobble:
        state["level"] = value
        recorder.sample(float(tick))
        transitions.append(detector.observe(recorder, "app.level"))
        tick += 1
    assert transitions == [None] * len(wobble)
    # A sustained 10x shift: first anomalous sample arms, second fires.
    for value in (100.0, 100.0):
        state["level"] = value
        recorder.sample(float(tick))
        transitions.append(detector.observe(recorder, "app.level"))
        tick += 1
    assert transitions[-2:] == [None, "fire"]
    assert "app.level" in detector.firing
    # Back to normal: clear_after consecutive normal samples resolve.
    clears = []
    for value in (10.0, 10.1, 9.9):
        state["level"] = value
        recorder.sample(float(tick))
        clears.append(detector.observe(recorder, "app.level"))
        tick += 1
    assert clears == [None, None, "clear"]
    assert detector.firing == {}


def test_rate_detector_catches_slope_change_on_cumulative_series():
    state = {"busy": 0.0, "level": 0.0}
    recorder = build(state)
    detector = SeriesDetector("sysprof.node.*.cpu_busy", mode="rate",
                              window=8, threshold=6.0, fire_after=2)
    name = "sysprof.node.backend.cpu_busy"
    # Steady 10% duty cycle for 10 samples: no anomaly.
    for tick in range(10):
        state["busy"] = tick * 0.1 * 0.5
        recorder.sample(tick * 0.5)
        assert detector.observe(recorder, name) is None
    # A CPU hog pins the core: slope jumps 0.1 -> 1.0; fires on the
    # second hogged interval.
    results = []
    for tick in range(10, 13):
        state["busy"] += 0.5  # fully busy interval
        recorder.sample(tick * 0.5)
        results.append(detector.observe(recorder, name))
    assert "fire" in results
    assert results[1] == "fire"


def test_score_requires_min_baseline():
    state = {"busy": 0.0, "level": 5.0}
    recorder = build(state)
    detector = SeriesDetector("app.level", min_baseline=5)
    for tick in range(5):
        recorder.sample(float(tick))
        assert detector.score(recorder, "app.level") is None
    recorder.sample(5.0)
    assert detector.score(recorder, "app.level") is not None


def test_monitor_fires_and_clears_through_active_map():
    state = {"busy": 0.0, "level": 10.0}
    recorder = build(state)
    monitor = AnomalyMonitor(recorder, detectors=[
        SeriesDetector("app.level", mode="zscore", window=8,
                       threshold=6.0, fire_after=2, clear_after=2),
    ])
    events = []
    for tick in range(8):
        state["level"] = 10.0 + (0.1 if tick % 2 else -0.1)
        recorder.sample(float(tick))
        events += monitor.check(now=float(tick))
    assert events == []
    for tick in range(8, 10):
        state["level"] = 200.0
        recorder.sample(float(tick))
        events += monitor.check(now=float(tick))
    assert [e["state"] for e in events] == ["fire"]
    assert events[0]["name"] == "anomaly:zscore(app.level)"
    assert list(monitor.active) == ["anomaly:zscore(app.level)"]
    for tick in range(10, 12):
        state["level"] = 10.0
        recorder.sample(float(tick))
        events += monitor.check(now=float(tick))
    assert [e["state"] for e in events] == ["fire", "clear"]
    assert monitor.active == {}
    stats = monitor.stats()
    assert stats["fired"] == 1 and stats["cleared"] == 1
    assert stats["active"] == 0


def test_monitor_blame_extracts_node_from_metric_name():
    recorder = build({"busy": 0.0, "level": 0.0})
    monitor = AnomalyMonitor(recorder, detectors=[])
    blame = monitor._blame("sysprof.node.backend1.cpu_busy")
    assert blame["node"] == "backend1"
    assert monitor._blame("app.level")["node"] is None
