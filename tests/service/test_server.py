"""The JSON socket server: wire round-trips, streaming, clean teardown."""

import json
import socket
import threading
import time

import pytest

from repro.service import ServiceServer, SocketClient, Supervisor
from repro.service.server import MAX_LINE, encode


@pytest.fixture
def served():
    """A supervised synthetic scenario pumped on a background thread,
    with the TCP server bound to an ephemeral port."""
    supervisor = Supervisor("synthetic", slice_width=0.1)
    server = ServiceServer(supervisor).start()

    def pump_loop():
        while not supervisor.stopping:
            supervisor.pump()

    thread = threading.Thread(target=pump_loop, daemon=True)
    thread.start()
    yield supervisor, server
    supervisor.stopping = True
    thread.join(timeout=10)
    server.stop()
    supervisor.scenario.close()  # idempotent; releases the CPU ledger


def test_wire_round_trip_and_id_matching(served):
    _supervisor, server = served
    client = SocketClient(server.host, server.port)
    try:
        result = client.call("ping")
        assert result["scenario"] == "synthetic"
        status = client.call("status")
        assert status["slices"] >= 0
    finally:
        client.close()


def test_invalid_json_line_gets_an_error_response(served):
    _supervisor, server = served
    raw = socket.create_connection((server.host, server.port), timeout=10)
    try:
        raw.sendall(b"this is not json\n")
        line = raw.makefile("r").readline()
        response = json.loads(line)
        assert response["ok"] is False
        assert "invalid JSON" in response["error"]
    finally:
        raw.close()


def test_subscribe_with_non_object_params_gets_an_error_response(served):
    """A malformed subscribe is answered like any other op, and the
    connection keeps serving."""
    _supervisor, server = served
    raw = socket.create_connection((server.host, server.port), timeout=10)
    try:
        lines = raw.makefile("r")
        for request_id, params in enumerate(([1, 2], "ab"), start=1):
            raw.sendall((encode({
                "v": 1, "id": request_id, "op": "subscribe", "params": params,
            }) + "\n").encode())
            response = json.loads(lines.readline())
            assert response["id"] == request_id
            assert response["ok"] is False
            assert "params must be an object" in response["error"]
        raw.sendall((encode({"v": 1, "id": 3, "op": "ping"}) + "\n").encode())
        response = json.loads(lines.readline())
        assert response["id"] == 3 and response["ok"] is True
    finally:
        raw.close()


def test_over_long_line_gets_an_error_response_then_eof(served):
    """A request line longer than MAX_LINE is answered once and the
    connection closes, instead of the server buffering it unbounded;
    other clients keep being served."""
    _supervisor, server = served
    raw = socket.create_connection((server.host, server.port), timeout=10)
    try:
        raw.sendall(b"x" * (MAX_LINE + 1))
        lines = raw.makefile("r")
        response = json.loads(lines.readline())
        assert response["ok"] is False
        assert "longer than" in response["error"]
        assert lines.readline() == ""
    finally:
        raw.close()
    client = SocketClient(server.host, server.port, timeout=10)
    try:
        assert client.call("ping")["scenario"] == "synthetic"
    finally:
        client.close()


def test_overflowing_number_gets_an_error_response_and_service_continues(served):
    """JSON ``1e999`` parses to ``inf``: the request is answered with one
    error, and the pump keeps serving the connection's next request."""
    _supervisor, server = served
    raw = socket.create_connection((server.host, server.port), timeout=10)
    try:
        lines = raw.makefile("r")
        raw.sendall(b'{"v": 1, "id": 1, "op": "alerts", "params": {"limit": 1e999}}\n')
        response = json.loads(lines.readline())
        assert response["id"] == 1 and response["ok"] is False
        assert "OverflowError" in response["error"]
        raw.sendall((encode({"v": 1, "id": 2, "op": "ping"}) + "\n").encode())
        response = json.loads(lines.readline())
        assert response["id"] == 2 and response["ok"] is True
    finally:
        raw.close()


def test_stop_ends_the_accept_thread_at_once():
    """On Linux, closing a listener does not wake a blocked accept()."""
    server = ServiceServer(supervisor=None).start()
    time.sleep(0.1)  # let the accept thread block
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 1.0
    assert not server._thread.is_alive()


def test_encode_is_compact_single_line(served):
    line = encode({"b": [1, 2], "a": "x"})
    assert "\n" not in line
    assert line == '{"a":"x","b":[1,2]}'


def test_subscriber_streams_fault_driven_events(served):
    """End to end over TCP: subscribe, stage a CPU hog, and watch the
    anomaly detector's alert arrive as a pushed event line."""
    supervisor, server = served
    client = SocketClient(server.host, server.port)
    try:
        sub = client.call("subscribe", events=["alert", "anomaly"])
        assert sub["sub"] >= 1
        client.call("inject_fault", events=[{
            "at": 0.3, "kind": "cpu_hog", "target": "n0",
            "params": {"duration": 1.5, "utilization": 0.95},
        }])
        event = client.read_event(timeout=120)
        assert event["event"] in ("alert", "anomaly")
        assert event["data"]["state"] == "fire"
        alert = event["data"]["alert"]
        assert alert["rule"].startswith("anomaly:")
        assert alert["blame"]["node"] == "n0"
    finally:
        client.close()


def test_shutdown_op_stops_the_pump_loop(served):
    supervisor, server = served
    client = SocketClient(server.host, server.port)
    try:
        result = client.call("shutdown")
        assert result["stopping"] is True
    finally:
        client.close()
    assert supervisor.stopping


def test_disconnected_subscriber_is_garbage_collected(served):
    supervisor, server = served
    client = SocketClient(server.host, server.port)
    client.call("subscribe", events=["alert"])
    client.close()
    # Next boundary flush hits the dead socket and drops the sub.  The
    # supervisor mutates _subs on its own thread; poll until it notices.
    deadline = threading.Event()
    for _ in range(200):
        supervisor.engine.external_fire(
            "anomaly:gc(probe)", 1.0, now=supervisor.now
        )
        supervisor.engine.external_clear(
            "anomaly:gc(probe)", now=supervisor.now
        )
        if not supervisor._subs:
            break
        deadline.wait(0.05)
    assert not supervisor._subs
