"""DiagnosisEngine behavior over a live monitored pair."""

import pytest

from repro.core import SysProfConfig
from repro.observability import DiagnosisEngine
from repro.observability.slo import SloRule
from tests.core.helpers import build_monitored_pair, drive_traffic
from tests.core.test_federation import build_federated


def _sketching_pair(**config_kwargs):
    config = SysProfConfig(
        eviction_interval=0.05, latency_sketches=True, **config_kwargs
    )
    return build_monitored_pair(config=config)


def test_engine_requires_gpa():
    cluster, sysprof = build_monitored_pair(gpa_node=None)
    with pytest.raises(ValueError, match="GPA"):
        DiagnosisEngine(sysprof)


def test_fires_blames_and_drills():
    cluster, sysprof = _sketching_pair()
    engine = DiagnosisEngine(
        sysprof, rules=["p50(query) < 1us"], lookback=1.0, eval_interval=0.05
    )
    # Enough requests that traffic outlasts the run: the violation is
    # still live when the simulation stops.
    drive_traffic(cluster, sysprof, count=250)
    assert engine.evaluations > 0
    assert engine.alerts_fired == 1
    alert = engine.alerts[0]
    assert alert.firing
    assert alert.blame["node"] == "server"
    assert alert.blame["stage"]
    # The blamed node was drilled down: shorter eviction interval, and
    # the daemon's gauge reflects it live.
    assert engine.drill_log and engine.drill_log[0]["node"] == "server"
    daemon = sysprof.monitor("server").daemon
    assert daemon.eviction_interval == pytest.approx(0.05 / 4)
    assert sysprof.controller.drilled_nodes() == ["server"]


def test_quiet_class_resolves_and_restores():
    cluster, sysprof = _sketching_pair()
    engine = DiagnosisEngine(
        sysprof, rules=["p50(query) < 1us"], lookback=0.5, eval_interval=0.05
    )
    # The default 10-request burst ends ~0.3s in; the lookback window
    # then drains, the rule measures None — documented as clear evidence —
    # and the drill-down unwinds online (nodestats rows keep driving
    # evaluations after the request class goes quiet).
    drive_traffic(cluster, sysprof)
    assert engine.alerts_fired == 1
    assert engine.alerts_resolved == 1
    assert not engine.active
    episode = engine.drill_log[0]
    assert episode["restored_at"] is not None
    daemon = sysprof.monitor("server").daemon
    assert daemon.eviction_interval == pytest.approx(0.05)
    assert sysprof.controller.drilled_nodes() == []


def test_never_firing_rule_stays_quiet():
    cluster, sysprof = _sketching_pair()
    engine = DiagnosisEngine(sysprof, rules=["p99(query) < 999999s"])
    drive_traffic(cluster, sysprof)
    assert engine.evaluations > 0
    assert engine.alerts == []
    assert engine.drill_log == []


def test_engine_registers_in_metrics_and_detaches():
    cluster, sysprof = _sketching_pair()
    engine = DiagnosisEngine(sysprof, rules=["p99(query) < 999999s"])
    assert "sysprof.diagnosis" in sysprof.metrics.source_prefixes()
    collected = sysprof.metrics.collect()
    assert collected["sysprof.diagnosis.rules"][1] == 1
    assert sysprof.gpa.diagnosis is engine
    engine.detach()
    assert sysprof.gpa.diagnosis is None


def test_dashboard_renders_sections():
    cluster, sysprof = _sketching_pair()
    engine = DiagnosisEngine(
        sysprof, rules=["p50(query) < 1us"], lookback=10.0
    )
    drive_traffic(cluster, sysprof)
    text = engine.dashboard()
    assert "sysprof diagnosis @" in text
    assert "query" in text            # the percentile table row
    assert "[FIRING]" in text
    assert "drilled nodes: server" in text


@pytest.mark.parametrize("federated", [False, True], ids=["flat", "federated"])
def test_staleness_rule_blames_quiet_node(federated):
    # Federated, the root sees only zone pseudo-nodes: the rule must be
    # measured at r0n0's zone GPA, where its nodestats land.
    if federated:
        cluster, sysprof = build_federated()
        node = "r0n0"
    else:
        cluster, sysprof = _sketching_pair()
        node = "server"
    rule = SloRule("staleness({}) < 1s".format(node), fire_after=1)
    engine = DiagnosisEngine(sysprof, rules=[rule], eval_interval=0.05)
    if federated:
        cluster.run(until=2.0)
    else:
        drive_traffic(cluster, sysprof)
    assert not engine.active  # telemetry flowing: rule holds
    # Daemon dies; nodestats stop arriving; staleness crosses 1s.
    sysprof.monitor(node).daemon.kill()
    engine.evaluate(cluster.sim.now + 5.0)
    assert engine.active
    alert = next(iter(engine.active.values()))
    assert alert.blame == {
        "node": node, "stage": "stale", "reason": "telemetry quiet"
    }


def test_zone_ingest_evaluates_rules_after_the_root_dies():
    """Every tier's ingest drives evaluation: with the root GPA and
    r0n0's daemon dead, r0's zone GPA still ingests, so the staleness
    rule on r0n0 measured there fires (when only the root's ingest
    evaluated, the run stopped at 3 evaluations and fired nothing)."""
    cluster, sysprof = build_federated()
    engine = DiagnosisEngine(sysprof, rules=["staleness(r0n0) < 2s"])
    cluster.run(until=1.0)
    sysprof.gpa.kill()
    sysprof.monitor("r0n0").daemon.kill()
    cluster.run(until=5.0)
    assert engine.evaluations == 49
    [alert] = engine.alerts
    assert alert.fired_at == pytest.approx(3.0015, abs=1e-3)
    assert alert.blame["node"] == "r0n0"
    engine.detach()
    tiers = [sysprof.gpa] + sysprof.federation.all_zones()
    assert all(tier.diagnosis is None for tier in tiers)


def test_federated_node_latency_rule_reads_the_members_zone():
    """``p95(rpc@r0n0)`` has samples only at r0's zone GPA (the root
    merges zone rollups under ``zone:r0``)."""
    cluster, sysprof = build_federated()
    rule = SloRule("p95(rpc@r0n0) < 50ms")
    engine = DiagnosisEngine(sysprof, rules=[rule], eval_interval=0.05)
    cluster.run(until=3.0)
    assert engine.evaluations > 0
    assert rule.last_value is not None
    assert 0.0 < rule.last_value < 0.050
    assert not engine.active
