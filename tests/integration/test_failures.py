"""Failure injection: lossy links, dead analyzers, overloaded daemons."""

import pytest

from repro.cluster import Cluster
from repro.core import SysProfConfig, encoding
from repro.core.encoding import FormatRegistry, encode_frame
from repro.netsim import Address, Packet
from tests.core.helpers import (
    build_monitored_pair,
    drive_traffic,
    echo_server,
    load_or_block_numpy,
)


def test_lossy_fabric_drops_frames():
    """The netsim layer injects loss; the message transport documents a
    reliable-LAN assumption, so this is exercised at the packet level."""
    cluster = Cluster(seed=51, loss_rate=0.3)
    a = cluster.add_node("a")
    b = cluster.add_node("b")
    received = []
    b.kernel.nic.rx_handler = lambda packet: received.append(packet)
    for index in range(100):
        a.kernel.nic.try_enqueue(
            Packet(Address(a.ip, 1), Address(b.ip, 2), 1000)
        )
    cluster.run(until=1.0)
    assert 20 < len(received) < 80  # ~0.49 survival through two lossy hops


def test_monitoring_survives_overload_by_shedding_records():
    """Tiny buffers + a slow daemon: records are lost, never corrupted."""
    cluster, sysprof = build_monitored_pair(
        config=SysProfConfig(eviction_interval=5.0, buffer_capacity=4)
    )
    drive_traffic(cluster, sysprof, count=40, run_until=10.0)
    buffer = sysprof.lpa("server").buffer
    assert buffer.records_appended == 40
    # Whatever was published decodes cleanly.
    assert sysprof.gpa.decode_errors == 0
    received = len(sysprof.gpa.query_interactions(node="server"))
    assert received + buffer.records_lost + buffer.active_length >= 36


def test_gpa_ignores_garbage_payloads():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=3)

    def attacker(ctx):
        sock = yield from ctx.connect("mgmt", 9100)
        yield from ctx.send_message(
            sock, 64, kind="sysprof-frame", meta={"blob": b"\xde\xad\xbe\xef" * 16}
        )
        yield from ctx.close(sock)

    cluster.node("client").spawn("attacker", attacker)
    cluster.run(until=cluster.sim.now + 1.0)
    assert sysprof.gpa.decode_errors >= 1
    # Legitimate records are still intact.
    assert len(sysprof.gpa.query_interactions(node="server")) == 3


def _probe_stream(record_format):
    """A descriptor and a one-record frame for a request class "probe"."""
    fmt = FormatRegistry().register(*record_format)
    zero = {"f64": 0.0, "i64": 0, "u32": 0, "u16": 0, "bool": False}
    record = {name: zero.get(ftype, "") for name, ftype in fmt.fields}
    record.update(node="server", request_class="probe")
    return fmt.describe(), encode_frame(fmt, [record])


def _send_on_one_connection(cluster, messages):
    def sender(ctx):
        sock = yield from ctx.connect("mgmt", 9100)
        for kind, blob in messages:
            yield from ctx.send_message(sock, len(blob), kind=kind, meta={"blob": blob})
        yield from ctx.close(sock)

    cluster.node("client").spawn("raw-sender", sender)
    cluster.run(until=cluster.sim.now + 1.0)


def test_short_frame_counted_and_connection_keeps_ingesting():
    """Regression: a frame shorter than its 8-byte header used to raise
    struct.error, killing the connection's handler so the valid frame
    behind it was never read."""
    cluster, sysprof = build_monitored_pair()
    descriptor, frame = _probe_stream(sysprof.lpa("server").record_format)
    _send_on_one_connection(cluster, [
        ("sysprof-fmt", descriptor),
        ("sysprof-frame", frame[:3]),
        ("sysprof-frame", frame),
    ])
    assert sysprof.gpa.decode_errors == 1
    assert len(sysprof.gpa.query_interactions(request_class="probe")) == 1


def test_short_descriptor_counted_and_connection_keeps_ingesting():
    cluster, sysprof = build_monitored_pair()
    descriptor, frame = _probe_stream(sysprof.lpa("server").record_format)
    _send_on_one_connection(cluster, [
        ("sysprof-fmt", descriptor[:3]),
        ("sysprof-fmt", descriptor),
        ("sysprof-frame", frame),
    ])
    assert sysprof.gpa.decode_errors == 1
    assert len(sysprof.gpa.query_interactions(request_class="probe")) == 1


def test_struct_rejected_descriptor_counted_and_connection_keeps_ingesting():
    """Regression: a descriptor whose strN width ``struct`` cannot
    address raised struct.error, which the tier's ValueError handler
    let out of ``cluster.run()``."""
    cluster, sysprof = build_monitored_pair()
    descriptor, frame = _probe_stream(sysprof.lpa("server").record_format)
    body = b"evil|a:str9999999999999999999999"
    _send_on_one_connection(cluster, [
        ("sysprof-fmt", encoding._DESCRIPTOR_HEADER.pack(999, len(body)) + body),
        ("sysprof-fmt", descriptor),
        ("sysprof-frame", frame),
    ])
    assert sysprof.gpa.decode_errors == 1
    assert len(sysprof.gpa.query_interactions(request_class="probe")) == 1


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "pure"])
def test_zero_width_frame_counted_and_connection_keeps_ingesting(
    numpy, monkeypatch
):
    """Regression: a frame claiming a million records of a field-less
    format is one counted decode error, whether numpy is loaded or
    cannot be imported."""
    load_or_block_numpy(numpy, monkeypatch)
    cluster, sysprof = build_monitored_pair()
    descriptor, frame = _probe_stream(sysprof.lpa("server").record_format)
    _send_on_one_connection(cluster, [
        ("sysprof-fmt", encoding._DESCRIPTOR_HEADER.pack(999, 6) + b"ghost|"),
        ("sysprof-frame", encoding._FRAME_HEADER.pack(
            encoding._FRAME_MAGIC, 999, 1_000_000)),
        ("sysprof-fmt", descriptor),
        ("sysprof-frame", frame),
    ])
    assert sysprof.gpa.decode_errors == 1
    assert len(sysprof.gpa.query_interactions(request_class="probe")) == 1


def test_server_crash_mid_run_leaves_partial_records():
    cluster, sysprof = build_monitored_pair()
    server_node = cluster.node("server")
    server_task = server_node.spawn("srv", echo_server)

    def client(ctx):
        sock = yield from ctx.connect("server", 8080)
        for index in range(20):
            yield from ctx.send_message(sock, 5000, kind="query")
            reply = yield from ctx.recv_message(sock)
            if reply is None:
                return "server-gone"
            yield from ctx.sleep(0.01)
        return "all-fine"

    client_task = cluster.node("client").spawn("cli", client)
    cluster.sim.schedule(0.055, server_task.kill, "crash")
    cluster.run(until=2.0)
    sysprof.flush()
    records = sysprof.gpa.query_interactions(node="server")
    assert 1 <= len(records) < 20
    assert client_task.is_alive or client_task.exit_value in (
        "server-gone", "all-fine",
    )


def test_unmonitored_node_traffic_invisible():
    cluster, sysprof = build_monitored_pair()
    # client <-> mgmt traffic is not monitored (only 'server' is).
    def mgmt_server(ctx):
        lsock = yield from ctx.listen(8500)
        sock = yield from ctx.accept(lsock)
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            yield from ctx.send_message(sock, 100, kind="pong")

    def client(ctx):
        sock = yield from ctx.connect("mgmt", 8500)
        yield from ctx.send_message(sock, 100, kind="ping")
        yield from ctx.recv_message(sock)
        yield from ctx.close(sock)

    cluster.node("mgmt").spawn("msrv", mgmt_server)
    cluster.node("client").spawn("cli", client)
    cluster.run(until=2.0)
    sysprof.flush()
    assert sysprof.gpa.query_interactions(request_class="ping") == []
