"""SLO rule grammar, measurement plumbing, and the hysteresis machine."""

import pytest

from repro.core.tier import AnalyzerTier
from repro.observability.slo import (
    Alert,
    SloParseError,
    SloRule,
    parse_rules,
)


def test_latency_percentile_forms():
    rule = SloRule("p99(rubis.search) < 80ms")
    assert rule.kind == "latency"
    assert rule.quantile == pytest.approx(0.99)
    assert rule.request_class == "rubis.search"
    assert rule.node is None
    assert rule.op == "<"
    assert rule.threshold == pytest.approx(0.080)

    pinned = SloRule("p95(nfs-write@proxy) <= 8ms")
    assert pinned.node == "proxy"
    assert pinned.op == "<="
    assert pinned.threshold == pytest.approx(0.008)


def test_qdepth_cpu_share_and_staleness_forms():
    qdepth = SloRule("qdepth_p90(nfs-write@backend1) < 32")
    assert qdepth.kind == "qdepth"
    assert qdepth.quantile == pytest.approx(0.90)
    assert qdepth.threshold == 32.0

    share = SloRule("cpu_share(backend1, monitoring) < 0.05")
    assert share.kind == "cpu_share"
    assert share.node == "backend1"
    assert share.category == "monitoring"

    stale = SloRule("staleness(backend1) < 2s")
    assert stale.kind == "staleness"
    assert stale.threshold == 2.0

    defaulted = SloRule("staleness(backend1)")
    assert defaulted.threshold is None
    assert defaulted.op == "<"


def test_threshold_units():
    assert SloRule("p50(x) < 250us").threshold == pytest.approx(250e-6)
    assert SloRule("p50(x) < 1.5s").threshold == pytest.approx(1.5)
    assert SloRule("p50(x) < 7").threshold == 7.0


@pytest.mark.parametrize("text", [
    "p50(x)",                    # percentile needs a threshold
    "cpu_share(a, workload)",    # cpu_share needs a threshold
    "p101(x) < 1ms",             # quantile out of range for the grammar
    "latency(x) < 1ms",          # unknown signal
    "p50(x) < fast",             # unparseable threshold
    "",
])
def test_rejected_rules(text):
    with pytest.raises(SloParseError):
        SloRule(text)


class _FakeGpa:
    def __init__(self, stale_threshold=1.0):
        self.stale_threshold = stale_threshold


def test_staleness_threshold_defaults_to_gpa():
    rule = SloRule("staleness(backend1)")
    gpa = _FakeGpa(stale_threshold=2.5)
    assert rule.effective_threshold(gpa) == 2.5
    explicit = SloRule("staleness(backend1) < 4s")
    assert explicit.effective_threshold(gpa) == 4.0


def test_staleness_measurement_uses_last_nodestats():
    rule = SloRule("staleness(backend1)")
    tier = AnalyzerTier(node=None, hub=None)
    assert rule.measure(tier, now=10.0) is None  # no history yet
    tier.ingest("sysprof.nodestats", [{"node": "backend1", "ts": 7.0}])
    assert rule.measure(tier, now=10.0) == pytest.approx(3.0)


def test_hysteresis_fire_and_clear():
    rule = SloRule("p95(x) < 10ms", fire_after=2, clear_after=2,
                   clear_factor=0.9)
    # One violation is not enough.
    assert rule.update(0.020) is None
    assert not rule.firing
    assert rule.update(0.020) == "fire"
    assert rule.firing
    # Meeting the objective but not the stricter clear bound: no resolve.
    assert rule.update(0.0095) is None        # < 10ms but >= 9ms
    assert rule.update(0.0095) is None
    assert rule.firing
    # Two consecutive evaluations under the clear bound resolve it.
    assert rule.update(0.0080) is None
    assert rule.update(0.0080) == "clear"
    assert not rule.firing


def test_hysteresis_violation_streak_resets():
    rule = SloRule("p95(x) < 10ms", fire_after=3)
    assert rule.update(0.020) is None
    assert rule.update(0.020) is None
    assert rule.update(0.001) is None   # streak broken
    assert rule.update(0.020) is None
    assert rule.update(0.020) is None
    assert rule.update(0.020) == "fire"


def test_missing_data_counts_as_met():
    rule = SloRule("p95(x) < 10ms", fire_after=1, clear_after=1)
    assert rule.update(None) is None
    assert not rule.firing
    assert rule.update(0.020) == "fire"
    # While firing, no data is clear evidence (the class went quiet).
    assert rule.update(None) == "clear"


def test_greater_than_direction():
    rule = SloRule("cpu_share(a, workload) > 0.5", fire_after=1, clear_after=1,
                   clear_factor=0.9)
    assert rule.update(0.3) == "fire"      # objective violated
    # Clear bound is stricter in the rule's favor: 0.5 / 0.9 ≈ 0.556.
    assert rule.update(0.52) is None
    assert rule.update(0.60) == "clear"


def test_format_value_and_alert_describe():
    rule = SloRule("p95(nfs-write) < 8ms")
    assert rule.format_value(0.0123) == "12.30ms"
    assert rule.format_value(None) == "n/a"
    assert SloRule("staleness(a) < 2s").format_value(1.5) == "1.50s"
    assert SloRule("cpu_share(a, b) < 0.5").format_value(0.25) == "25.0%"

    alert = Alert(rule, 2.0, 0.016,
                  blame={"node": "backend1", "stage": "kernel-wait"})
    text = alert.describe()
    assert "[FIRING]" in text and "blame=backend1/kernel-wait" in text
    alert.resolve(4.0, 0.004)
    assert alert.state == "resolved"
    assert "resolved t=4.00s" in alert.describe()
    as_dict = alert.as_dict()
    assert as_dict["fired_at"] == 2.0
    assert as_dict["blame"]["node"] == "backend1"


def test_parse_rules_passthrough():
    ready = SloRule("p50(x) < 1ms")
    rules = parse_rules([ready, "p99(y) < 2ms"], fire_after=3)
    assert rules[0] is ready
    assert rules[1].fire_after == 3
