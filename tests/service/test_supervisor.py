"""Supervisor: protocol dispatch, slice pumping, events, controls."""

import threading

import pytest

from repro.service import (
    EVENT_KINDS,
    OPS,
    PROTOCOL_VERSION,
    ServiceCallError,
    ServiceClient,
    Supervisor,
)


@pytest.fixture
def sup():
    supervisor = Supervisor("synthetic", slice_width=0.1)
    yield supervisor
    if not supervisor.stopping:
        supervisor.shutdown()


@pytest.fixture
def client(sup):
    return ServiceClient(sup)


# ---------------------------------------------------------------------------
# protocol shape
# ---------------------------------------------------------------------------


def test_response_echoes_id_and_version(sup):
    response = sup.handle({"v": 1, "id": 7, "op": "ping", "params": {}})
    assert response["v"] == PROTOCOL_VERSION
    assert response["id"] == 7
    assert response["ok"] is True
    assert response["result"]["scenario"] == "synthetic"


def test_unknown_op_is_an_error_not_an_exception(sup):
    response = sup.handle({"op": "frobnicate"})
    assert response["ok"] is False
    assert "frobnicate" in response["error"]
    assert "ping" in response["error"]  # advertises the real op table


def test_wrong_protocol_version_is_rejected(sup):
    response = sup.handle({"v": 99, "op": "ping"})
    assert response["ok"] is False
    assert "99" in response["error"]


def test_malformed_requests_are_errors(sup):
    assert sup.handle("not an object")["ok"] is False
    assert sup.handle({"op": "ping", "params": [1, 2]})["ok"] is False
    missing = sup.handle({"op": "series", "params": {}})  # requires "name"
    assert missing["ok"] is False


def test_client_raises_on_error_responses(client):
    with pytest.raises(ServiceCallError):
        client.call("frobnicate")


def test_every_op_in_the_table_has_a_handler(sup):
    for name, handler in OPS.items():
        assert callable(handler), name


# ---------------------------------------------------------------------------
# pumping
# ---------------------------------------------------------------------------


def test_pump_advances_exactly_one_slice(sup):
    assert sup.now == 0.0
    sup.pump()
    assert sup.now == pytest.approx(0.1)
    sup.pump(width=0.05)
    assert sup.now == pytest.approx(0.15)
    assert sup.slices == 2


def test_run_stops_exactly_at_the_deadline(sup):
    sup.run(0.73)
    assert sup.now == pytest.approx(0.73)
    sup.run(0.27)
    assert sup.now == pytest.approx(1.0)


def test_boundary_samples_recorder_and_anomaly(sup):
    sup.run(0.5)
    assert sup.recorder.samples == sup.slices
    assert sup.anomaly.checks == sup.slices
    assert sup.recorder.names()  # series actually landed


def test_fault_free_run_raises_no_anomaly(sup):
    """The synthetic load burns CPU at a constant rate; only rounding
    moves its busy-seconds slope, and rounding is not an anomaly."""
    sub = sup.subscribe(["alert", "anomaly"])
    sup.run(3.0)
    assert sup.anomaly.checks == sup.slices
    assert sup.anomaly.fired == 0
    assert sup.poll(sub) == []


def test_service_sources_are_registered(sup):
    prefixes = sup.sysprof.metrics.source_prefixes()
    assert "sysprof.recorder" in prefixes
    assert "sysprof.anomaly" in prefixes
    assert "sysprof.service" in prefixes
    sup.run(0.2)
    collected = sup.sysprof.metrics.collect()
    assert collected["sysprof.recorder.samples"][1] == sup.slices
    assert collected["sysprof.service.slices"][1] == sup.slices


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def test_metrics_query_filters_by_pattern(sup, client):
    sup.run(0.3)
    result = client.metrics(pattern="sysprof.node.*.cpu_busy")
    assert result["ts"] == sup.now
    assert result["metrics"]
    assert all(
        name.startswith("sysprof.node.") for name in result["metrics"]
    )


def test_series_and_names_round_trip(sup, client):
    sup.run(0.3)
    names = client.call("series_names", pattern="sysprof.node.*")["names"]
    assert names
    series = client.call("series", name=names[0])
    assert series["kind"] in ("counter", "gauge")
    assert len(series["points"]) == sup.slices


def test_status_and_rules_reflect_the_scenario(sup, client):
    status = client.status()
    assert status["scenario"]["name"] == "synthetic"
    assert status["slice_width"] == 0.1
    rules = client.call("rules")["rules"]
    assert rules and rules[0]["firing"] is False


def test_dashboard_op_renders_text(sup, client):
    sup.run(0.4)
    text = client.call("dashboard")["text"]
    assert "repro serve :: synthetic" in text
    assert "node health:" in text
    assert "history" in text


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------


def test_control_ops_apply_and_are_counted(sup, client):
    sup.run(0.2)
    client.call("set_eviction_interval", interval=0.05)
    monitor = next(iter(sup.sysprof.monitors.values()))
    assert monitor.daemon.eviction_interval == 0.05
    client.call("add_rule", rule="p99(rpc) < 2s")
    assert len(sup.engine.rules) == 2
    client.call("remove_rule", rule="p99(rpc) < 2s")
    assert len(sup.engine.rules) == 1
    client.call("drill_down", node="n0")
    assert sup.sysprof.controller.drilled_nodes() == ["n0"]
    client.call("restore", node="n0")
    assert sup.sysprof.controller.drilled_nodes() == []
    assert client.status()["controls_applied"] == 5


def test_inject_fault_registers_relative_to_now(sup, client):
    sup.run(0.5)
    result = client.inject_fault(events=[{
        "at": 0.25, "kind": "cpu_hog", "target": "n0",
        "params": {"duration": 0.2, "utilization": 1.0},
    }])
    assert result["registered"][0]["at"] == pytest.approx(0.75)
    sup.run(1.0)
    assert sup.injector.summary() == {"cpu_hog": 1}


#: Live fault requests naming nothing in the nfs scenario, a time in
#: the past, or an unknown hog band.
BAD_FAULT_REQUESTS = [
    {"events": [{"at": 0.5, "kind": "link_down", "target": "nosuch"}]},
    {"events": [{"at": 0.5, "kind": "link_down", "target": ["backend1"]}]},
    {"events": [{"at": 0.5, "kind": "daemon_kill", "target": 5}]},
    {"events": [{"at": 0.5, "kind": "partition",
                 "params": {"groups": [["a"], ["backend1"]]}}]},
    {"base": 0.0, "events": [{"at": 0.1, "kind": "cpu_hog", "target": "backend1",
                              "params": {"duration": 0.5}}]},
    {"events": [{"at": 0.5, "kind": "cpu_hog", "target": "backend1",
                 "params": {"duration": 0.5, "band": "irq"}}]},
]


def test_bad_fault_requests_are_refused_and_the_run_survives():
    supervisor = Supervisor("nfs")
    try:
        supervisor.pump(0.2)
        accepted = [
            params for params in BAD_FAULT_REQUESTS
            if supervisor.handle({"op": "inject_fault", "params": params})["ok"]
        ]
        assert accepted == []
        assert supervisor.pump(2.0) == pytest.approx(2.2)
        assert supervisor.injector.injected == 0
    finally:
        supervisor.shutdown()


#: Control requests that must be refused without touching the run:
#: intervals that are not positive and finite, a drill-down whose factor
#: or granularity is bad, and rules that are not strings.
BAD_CONTROL_REQUESTS = [
    ("set_eviction_interval", {"interval": -1}),
    ("set_eviction_interval", {"interval": 0}),
    ("set_eviction_interval", {"interval": "nan"}),
    ("set_eviction_interval", {"interval": "inf"}),
    ("set_forward_interval", {"interval": "nan"}),
    ("drill_down", {"node": "backend1", "factor": 0}),
    ("drill_down", {"node": "backend1", "factor": 0.5}),
    ("drill_down", {"node": "backend1", "factor": -2}),
    ("drill_down", {"node": "backend1", "granularity": "packet"}),
    ("add_rule", {"rule": 5}),
    ("set_rules", {"rules": [5]}),
    ("set_rules", {"rules": ["p95(nfs-write) < 8ms", None]}),
    ("remove_rule", {"rule": ["p95(nfs-write) < 8ms"]}),
]


def test_bad_control_requests_are_refused_and_the_run_survives():
    supervisor = Supervisor("nfs")
    try:
        supervisor.pump()
        monitors = supervisor.sysprof.monitors
        before = {
            name: (m.daemon.eviction_interval, m.interaction_lpa.granularity)
            for name, m in monitors.items()
        }
        rules = [rule.name for rule in supervisor.engine.rules]
        answers = [
            (op, params, supervisor.handle({"op": op, "params": params}))
            for op, params in BAD_CONTROL_REQUESTS
        ]
        accepted = [(op, params) for op, params, answer in answers if answer["ok"]]
        assert accepted == []
        assert supervisor.sysprof.controller.drilled_nodes() == []
        assert {
            name: (m.daemon.eviction_interval, m.interaction_lpa.granularity)
            for name, m in monitors.items()
        } == before
        assert [rule.name for rule in supervisor.engine.rules] == rules
        start = supervisor.now
        supervisor.pump()
        supervisor.pump()
        assert supervisor.now == pytest.approx(start + 2 * supervisor.slice_width)
        # A valid drill-down after the refused ones still applies, by the
        # factor asked for.
        assert supervisor.handle(
            {"op": "drill_down", "params": {"node": "backend1", "factor": 2.5}}
        )["ok"]
        assert monitors["backend1"].daemon.eviction_interval == pytest.approx(
            before["backend1"][0] / 2.5
        )
    finally:
        supervisor.shutdown()


def test_forward_interval_must_be_positive_and_finite():
    supervisor = Supervisor("federation")
    try:
        zones = list(supervisor.sysprof.federation.all_zones())
        before = [zone.forward_interval for zone in zones]
        for interval in (-1, 0, "nan", "inf"):
            answer = supervisor.handle(
                {"op": "set_forward_interval", "params": {"interval": interval}}
            )
            assert answer["ok"] is False, interval
        assert [zone.forward_interval for zone in zones] == before
        assert supervisor.handle(
            {"op": "set_forward_interval", "params": {"interval": 0.25}}
        )["ok"]
        assert [zone.forward_interval for zone in zones] == [0.25] * len(zones)
    finally:
        supervisor.shutdown()


def test_set_forward_interval_requires_federation(sup, client):
    with pytest.raises(ServiceCallError, match="federated"):
        client.call("set_forward_interval", interval=0.5)


# ---------------------------------------------------------------------------
# events and subscriptions
# ---------------------------------------------------------------------------


def test_subscription_filters_kinds_and_sequences_events(sup, client):
    sub_all = client.subscribe()
    sub_reparent = client.subscribe(events=["reparent"])
    sup.engine.external_fire("anomaly:test(x)", 9.0, now=sup.now)
    sup.engine.external_clear("anomaly:test(x)", now=sup.now)
    events = client.poll(sub_all)
    # An anomaly transition lands on both the anomaly and alert streams.
    assert [e["event"] for e in events] == [
        "anomaly", "alert", "anomaly", "alert"
    ]
    assert [e["data"]["state"] for e in events] == [
        "fire", "fire", "clear", "clear"
    ]
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert all(e["v"] == PROTOCOL_VERSION for e in events)
    assert client.poll(sub_all) == []  # poll drains
    assert client.poll(sub_reparent) == []  # filtered out entirely


def test_unknown_event_kind_is_rejected(client):
    with pytest.raises(ServiceCallError, match="unknown event kinds"):
        client.subscribe(events=["weather"])
    assert set(EVENT_KINDS) == {"alert", "reparent", "anomaly"}


def test_push_subscribers_flush_at_slice_boundaries(sup):
    pushed = []
    sup.subscribe(["alert", "anomaly"], push=pushed.append)
    sup.engine.external_fire("anomaly:test(y)", 5.0, now=sup.now)
    assert pushed == []  # queued, not delivered mid-slice
    sup.pump()
    assert [e["data"]["state"] for e in pushed] == ["fire", "fire"]


def test_dead_push_subscriber_is_dropped_not_fatal(sup):
    def broken(_event):
        raise ConnectionError("gone")

    sub_id = sup.subscribe(["alert"], push=broken)
    sup.engine.external_fire("anomaly:test(z)", 5.0, now=sup.now)
    sup.pump()  # must not raise
    assert sub_id not in sup._subs


def test_poll_after_unsubscribe_is_an_error(sup, client):
    sub = client.subscribe()
    assert client.call("unsubscribe", sub=sub)["removed"] is True
    with pytest.raises(ServiceCallError, match="unknown subscription"):
        client.poll(sub)


def test_reparent_events_stream_during_a_parent_partition():
    """Federated scenario: cutting a zone GPA off pushes the members'
    failover — and the post-heal return — onto the reparent stream."""
    supervisor = Supervisor("federation", slice_width=0.2)
    try:
        client = ServiceClient(supervisor)
        sub = client.subscribe(events=["reparent"])
        supervisor.run(1.0)
        client.inject_fault(events=[
            {"at": 0.0, "kind": "parent_partition", "target": "r0",
             "params": {"scope": "gpa"}},
            {"at": 4.0, "kind": "heal"},
        ])
        supervisor.run(8.0)
        events = client.poll(sub)
        transitions = [
            (e["data"]["link"], e["data"]["event"], e["data"]["target"])
            for e in events
        ]
        reparents = [t for t in transitions if t[1] == "reparent"]
        returns = [t for t in transitions if t[1] == "return"]
        assert reparents, transitions
        assert all(target == "root" for _link, _ev, target in reparents)
        assert {link for link, _ev, _t in reparents} == {
            "r0n0", "r0n1", "r0n2"
        }
        assert returns, "members must return to the healed primary"
    finally:
        supervisor.shutdown()


# ---------------------------------------------------------------------------
# cross-thread submission
# ---------------------------------------------------------------------------


def test_submit_is_answered_at_the_next_boundary(sup):
    responses = []

    def submitter():
        responses.append(sup.submit({"op": "ping"}))

    thread = threading.Thread(target=submitter)
    thread.start()
    deadline = 100
    while not responses and deadline:
        sup.pump()
        deadline -= 1
    thread.join(timeout=5)
    assert responses and responses[0]["ok"] is True


def test_shutdown_releases_the_ledger_and_stops(sup):
    from repro.observability import ledger as cpu_ledger

    assert cpu_ledger.active() is not None
    sup.shutdown()
    assert sup.stopping
    assert cpu_ledger.active() is None
    sup.shutdown()  # idempotent
