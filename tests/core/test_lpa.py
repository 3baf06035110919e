"""Interaction LPA end-to-end on a monitored node."""

import pytest

from tests.core.helpers import build_monitored_pair, drive_traffic, request_client
from repro.core import SysProfConfig


def test_interactions_counted_and_windowed():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=10)
    lpa = sysprof.lpa("server")
    stats = lpa.stats()
    assert stats["interactions"] == 10
    assert stats["unpaired"] <= 1  # the FIN run may stay unpaired
    window = lpa.window_snapshot()
    assert len(window) == 10


def test_user_time_measures_server_compute():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    for record in sysprof.lpa("server").window_snapshot():
        assert record["user_time"] == pytest.approx(0.002, rel=0.05)
        assert record["server_name"] == "srv"
        assert record["req_bytes"] == 10000
        assert record["resp_bytes"] == 3000


def test_kernel_wait_positive_and_reasonable():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=6)
    for record in sysprof.lpa("server").window_snapshot():
        assert 0 < record["kernel_wait"] < 0.005
        assert record["kernel_time"] >= record["kernel_wait"]
        assert record["total_latency"] > record["user_time"]


def test_window_size_bounds_snapshot():
    cluster, sysprof = build_monitored_pair()
    sysprof.controller.set_window_size(4, node="server")
    drive_traffic(cluster, sysprof, count=10)
    assert len(sysprof.lpa("server").window_snapshot()) == 4


def test_class_granularity_emits_summaries():
    cluster, sysprof = build_monitored_pair(
        config=SysProfConfig(eviction_interval=0.05, granularity="class")
    )
    drive_traffic(cluster, sysprof, count=8)
    summaries = list(sysprof.gpa.class_summaries)
    assert summaries, "expected class summary records at the GPA"
    total = sum(summary["count"] for summary in summaries)
    assert total == 8
    assert all(summary["request_class"] == "query" for summary in summaries)
    assert all(summary["mean_latency"] > 0 for summary in summaries)
    # No per-interaction records in class mode.
    assert sysprof.gpa.query_interactions(node="server") == []


def test_records_reach_gpa_via_channels():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=10)
    records = sysprof.gpa.query_interactions(node="server")
    assert len(records) == 10
    assert sysprof.gpa.decode_errors == 0
    daemon_stats = sysprof.monitor("server").daemon.stats()
    assert daemon_stats["records_published"] >= 10
    assert daemon_stats["bytes_published"] > 0


def test_nodestats_sampled_periodically():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=5, run_until=2.0)
    load = sysprof.gpa.server_load("server")
    assert load is not None
    assert load["cpu_utilization"] >= 0.0
    assert "rx_backlog_bytes" in load


def test_self_traffic_excluded_from_interactions():
    """SysProf's own dissemination must not appear as interactions."""
    cluster, sysprof = build_monitored_pair(
        monitored=("server", "mgmt")
    )
    drive_traffic(cluster, sysprof, count=5)
    for node in ("server", "mgmt"):
        for record in sysprof.gpa.query_interactions(node=node):
            assert record["server_port"] < 9100 or record["server_port"] > 9199
            assert record["client_port"] < 9100 or record["client_port"] > 9199


def test_lpa_stop_halts_collection():
    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=5)
    before = sysprof.lpa("server").tracker.interactions_emitted
    sysprof.lpa("server").stop()
    cluster.node("client").spawn("cli2", request_client, "server", 8080, 5)
    cluster.run(until=cluster.sim.now + 2.0)
    assert sysprof.lpa("server").tracker.interactions_emitted == before
