"""Dissemination daemon + publish-subscribe channels."""

import pytest

from repro.core.channels import ChannelHub, is_sysprof_port
from repro.core import SysProfConfig
from tests.core.helpers import build_monitored_pair, drive_traffic


def test_hub_subscribe_unsubscribe():
    hub = ChannelHub()
    hub.subscribe("sysprof/x", "mgmt", 9100)
    hub.subscribe("sysprof/x", "other", 9101)
    assert hub.subscribers("sysprof/x") == [("mgmt", 9100), ("other", 9101)]
    hub.unsubscribe("sysprof/x", "mgmt", 9100)
    assert hub.subscribers("sysprof/x") == [("other", 9101)]
    assert hub.subscribers("sysprof/none") == []


def test_hub_rejects_out_of_range_ports():
    hub = ChannelHub()
    with pytest.raises(ValueError):
        hub.subscribe("sysprof/x", "mgmt", 80)


def test_hub_duplicate_subscription_idempotent():
    hub = ChannelHub()
    hub.subscribe("c", "n", 9100)
    hub.subscribe("c", "n", 9100)
    assert len(hub.subscribers("c")) == 1


def test_is_sysprof_port():
    assert is_sysprof_port(9100) and is_sysprof_port(9199)
    assert not is_sysprof_port(9099) and not is_sysprof_port(9200)


def test_daemon_publishes_binary_records():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    daemon = sysprof.monitor("server").daemon
    stats = daemon.stats()
    assert stats["records_published"] >= 6
    assert stats["publishes"] >= 1
    assert stats["bytes_published"] > 100


def test_daemon_procfs_exports():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=4)
    procfs = cluster.node("server").kernel.procfs
    daemon_text = procfs.read("/proc/sysprof/daemon")
    assert "records_published=" in daemon_text
    lpa_text = procfs.read("/proc/sysprof/interaction-lpa")
    assert "interactions=4" in lpa_text
    assert "interaction id=" in lpa_text


def test_data_filter_drops_records():
    cluster, sysprof = build_monitored_pair()
    daemon = sysprof.monitor("server").daemon
    daemon.data_filter = lambda lpa_name, record: (
        record.get("request_class") != "query"
    )
    drive_traffic(cluster, sysprof, count=5)
    assert daemon.records_filtered >= 5
    assert sysprof.gpa.query_interactions(node="server") == []


def test_text_encoding_ablation_publishes_but_gpa_skips():
    cluster, sysprof = build_monitored_pair(
        config=SysProfConfig(eviction_interval=0.05, text_encoding=True)
    )
    drive_traffic(cluster, sysprof, count=5)
    daemon = sysprof.monitor("server").daemon
    assert daemon.records_published >= 5
    assert sysprof.gpa.query_interactions(node="server") == []


def test_channel_traffic_uses_simulated_network():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    mgmt_nic = cluster.node("mgmt").kernel.nic
    assert mgmt_nic.rx_packets > 0  # GPA received real packets


def test_daemon_stop_halts_publishing():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=4)
    daemon = sysprof.monitor("server").daemon
    published = daemon.records_published
    daemon.stop()
    cluster.run(until=cluster.sim.now + 1.0)
    from tests.core.helpers import request_client

    cluster.node("client").spawn("cli2", request_client, "server", 8080, 4)
    cluster.run(until=cluster.sim.now + 2.0)
    assert daemon.records_published == published


def test_daemon_publishes_frames():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    daemon = sysprof.monitor("server").daemon
    assert daemon.publisher.frames_published >= 1
    gpa_stats = sysprof.gpa.stats()
    assert gpa_stats["frames_received"] >= 1
    assert gpa_stats["decode_errors"] == 0
    assert len(sysprof.gpa.query_interactions(node="server")) == 6


def test_multiple_drains_coalesce_into_one_frame():
    """Two buffer-full notifications pending at one wakeup — here from
    two same-format analyzer buffers — become a single frame carrying
    all four records."""
    from repro.core.lpa import InteractionLPA

    cluster, sysprof = build_monitored_pair(
        config=SysProfConfig(
            eviction_interval=0.5, buffer_capacity=2, nodestats=False
        )
    )
    lpa = sysprof.lpa("server")
    monitor = sysprof.monitor("server")
    daemon = monitor.daemon
    extra = InteractionLPA(
        monitor.node.kernel, monitor.kprof,
        name="interaction-lpa-2", buffer_capacity=2,
    )
    daemon.add_lpa(extra)
    base = {
        "node": "server", "client_ip": "10.0.0.9", "client_port": 4000,
        "server_ip": "10.0.0.2", "server_port": 8080, "start_ts": 0.0,
        "end_ts": 0.001, "req_packets": 1, "req_bytes": 100,
        "resp_packets": 1, "resp_bytes": 50, "kernel_wait": 0.0,
        "kernel_cpu": 0.0, "kernel_time": 0.0, "user_time": 0.0,
        "io_blocked": 0.0, "ctx_switches": 0, "disk_ops": 0,
        "server_pid": 1, "server_name": "srv", "request_class": "query",
        "total_latency": 0.001,
    }
    for i in range(2):
        lpa.buffer.append(dict(base, interaction_id=i))
    for i in range(2, 4):
        extra.buffer.append(dict(base, interaction_id=i))
    # Two pending hand-offs queued, one per analyzer buffer.
    assert lpa.buffer.switches == 1 and extra.buffer.switches == 1
    cluster.run(until=0.4)
    assert daemon.publisher.frames_published == 1
    assert daemon.records_published == 4
    assert sysprof.gpa.stats()["frames_received"] == 1
    assert len(sysprof.gpa.interactions) == 4


def test_format_descriptors_resent_after_reconnect():
    """A replaced subscriber socket must re-learn every format: the peer's
    decoder registry died with the old connection."""
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=3)
    daemon = sysprof.monitor("server").daemon
    sends_before = daemon.publisher.format_sends
    assert sends_before >= 1
    for endpoint in list(daemon.publisher._sockets):
        daemon.reset_endpoint(endpoint)
    from tests.core.helpers import request_client

    cluster.node("client").spawn("cli2", request_client, "server", 8080, 3)
    cluster.run(until=cluster.sim.now + 2.0)
    sysprof.flush()
    assert daemon.publisher.format_sends > sends_before
    assert sysprof.gpa.stats()["decode_errors"] == 0
    assert len(sysprof.gpa.query_interactions(node="server")) == 6


def test_data_filter_sees_rows_through_record_view():
    """Filter push-down: dict-style filters keep working although the
    analyzers now buffer preordered row tuples."""
    cluster, sysprof = build_monitored_pair()
    daemon = sysprof.monitor("server").daemon
    seen_classes = []
    daemon.data_filter = lambda lpa_name, record: (
        seen_classes.append(record.get("request_class")) or True
    )
    drive_traffic(cluster, sysprof, count=3)
    assert "query" in seen_classes
    assert daemon.records_filtered == 0
    assert len(sysprof.gpa.query_interactions(node="server")) == 3


def test_no_subscribers_means_local_only():
    cluster, sysprof = build_monitored_pair(gpa_node=None)
    drive_traffic(cluster, sysprof, count=4)
    daemon = sysprof.monitor("server").daemon
    # Records were collected and encoded, but nobody subscribed.
    assert daemon.records_published >= 4
    assert daemon.publisher.publishes == 0
    assert sysprof.lpa("server").tracker.interactions_emitted == 4
