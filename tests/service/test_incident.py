"""The staged incident: anomaly detection beats the SLO rule to the punch.

A CPU hog on the NFS backend first shows up as a slope change in the
node's cumulative ``cpu_busy`` gauge — visible to the rate detector
within a couple of recorder samples — and only later as a p95 latency
breach once enough slow interactions fill the SLO rule's sliding
lookback and hysteresis.  This test stages that incident through the
live control plane and pins the ordering: the synthetic anomaly alert
fires strictly before the rule alert, both stream to a subscriber, and
both clear after the hog ends.
"""

import pytest

from repro.service import ServiceClient, Supervisor

HOG_NODE = "backend1"
HOG_START = 0.75  # absolute simulated time
HOG_DURATION = 2.0


def _stage_incident():
    """Run the scripted incident; return (supervisor, streamed events)."""
    supervisor = Supervisor("nfs", slice_width=0.1)
    client = ServiceClient(supervisor)
    sub = client.subscribe(events=["alert", "anomaly"])
    supervisor.run(0.5)
    client.inject_fault(events=[{
        "at": HOG_START - supervisor.now, "kind": "cpu_hog",
        "target": HOG_NODE,
        "params": {"duration": HOG_DURATION, "utilization": 0.95},
    }])
    supervisor.run(7.5)  # hog ends at 2.75; leave room for both clears
    return supervisor, client.poll(sub)


@pytest.fixture(scope="module")
def incident():
    """The incident, staged once and only read by every test here."""
    supervisor, events = _stage_incident()
    yield supervisor, events
    supervisor.shutdown()


def _lifecycle(events, source):
    return [
        (e["data"]["state"], e["at"])
        for e in events
        if e["event"] == "alert" and e["data"]["alert"]["source"] == source
    ]


def test_anomaly_fires_before_the_slo_rule(incident):
    _supervisor, events = incident
    anomaly = _lifecycle(events, "anomaly")
    rule = _lifecycle(events, "rule")
    assert anomaly and anomaly[0][0] == "fire"
    assert rule and rule[0][0] == "fire"
    anomaly_fire_at = anomaly[0][1]
    rule_fire_at = rule[0][1]
    assert anomaly_fire_at >= HOG_START  # not before the incident exists
    assert anomaly_fire_at < rule_fire_at, (
        "rate detector must flag the hog before the p95 rule trips "
        "(anomaly at {:.2f}s, rule at {:.2f}s)".format(
            anomaly_fire_at, rule_fire_at
        )
    )


def test_both_alerts_clear_after_the_hog_ends(incident):
    """Both lifecycles complete: each source's last transition is a
    clear.  (The rate detector may legitimately fire twice — the hog's
    *end* is a slope change too — but every fire must eventually clear
    once the baseline re-adapts.)"""
    _supervisor, events = incident
    for source in ("anomaly", "rule"):
        states = [state for state, _at in _lifecycle(events, source)]
        assert states[0] == "fire"
        assert states[-1] == "clear", source
        clear_at = _lifecycle(events, source)[-1][1]
        assert clear_at > HOG_START


def test_incident_attribution_names_the_hogged_node(incident):
    supervisor, events = incident
    anomaly_fires = [
        e for e in events
        if e["event"] == "anomaly" and e["data"]["state"] == "fire"
    ]
    assert anomaly_fires
    blame = anomaly_fires[0]["data"]["alert"]["blame"]
    assert blame["node"] == HOG_NODE
    assert HOG_NODE in blame["reason"]
    # The engine-level alert history agrees and ids never collided.
    ids = [alert.id for alert in supervisor.engine.alerts]
    assert len(ids) == len(set(ids))
    sources = {alert.source for alert in supervisor.engine.alerts}
    assert sources == {"anomaly", "rule"}


def test_incident_is_seed_deterministic(incident):
    supervisor, events = incident
    assert supervisor.engine.anomaly_alerts >= 1
    # Replay the identical incident: the full event stream (kinds,
    # states, rule names, timestamps) must reproduce exactly.
    replay_sup, replay = _stage_incident()
    replay_sup.shutdown()
    strip = [
        (e["event"], e["seq"], e["at"], e["data"]["state"],
         e["data"]["alert"]["rule"])
        for e in events
    ]
    replay_strip = [
        (e["event"], e["seq"], e["at"], e["data"]["state"],
         e["data"]["alert"]["rule"])
        for e in replay
    ]
    assert strip == replay_strip
