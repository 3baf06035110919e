"""Dissemination-daemon behavior when its subscriber misbehaves.

The bugs under regression: the old ``_endpoint_socket`` cached ``None``
for a dead endpoint (so it never reconnected) while every publish wakeup
still dialed the dead peer (so there was no pacing either), and
``reset_endpoint`` leaked one ``_formats_sent`` entry per subscriber
restart.
"""

from repro.core import SysProfConfig
from repro.core.publisher import RECONNECT_MAX_RETRIES
from repro.experiments.common import trace_digest
from repro.faults import FaultInjector, FaultSchedule
from tests.core.helpers import build_monitored_pair, drive_traffic


def _advance(cluster, span):
    cluster.run(until=cluster.sim.now + span)


def test_dead_subscriber_dials_are_backoff_bounded():
    """~60 publish wakeups against a dead GPA must not mean ~60 dials."""
    cluster, sysprof = build_monitored_pair()
    daemon = sysprof.monitor("server").daemon
    publisher = daemon.publisher
    _advance(cluster, 0.2)  # let the first publishes connect normally
    sysprof.gpa.kill()
    _advance(cluster, 3.0)
    # Nodestats evictions fire every 0.05s, so the daemon woke to publish
    # on the order of 60 times while the subscriber was down.  Backoff
    # caps actual dials near the retry budget; the rest are window skips.
    wakeups = int(3.0 / daemon.eviction_interval)
    assert publisher.send_errors >= 1  # the established socket was reset
    assert 1 <= publisher.connect_attempts - 1 <= RECONNECT_MAX_RETRIES + 1
    assert publisher.connect_attempts < wakeups // 2
    assert publisher.backoff_skips > publisher.connect_attempts
    assert daemon.stats()["backoff_skips"] == publisher.backoff_skips


def test_formats_sent_does_not_grow_across_subscriber_restarts():
    cluster, sysprof = build_monitored_pair()
    publisher = sysprof.monitor("server").daemon.publisher
    for _ in range(3):
        _advance(cluster, 1.0)
        sysprof.gpa.kill()
        _advance(cluster, 0.3)
        sysprof.gpa.restart()
    _advance(cluster, 1.0)
    # One subscriber endpoint -> at most one descriptor-set entry, ever.
    # (Before the fix this held one dead-socket tuple per restart.)
    assert len(publisher._formats_sent) <= 1
    assert len(publisher._sockets) <= 1
    assert publisher.reconnects >= 3
    assert sysprof.gpa.restarts == 3


def test_subscriber_death_mid_publish_and_recovery():
    """Kill the GPA mid-run, restart it, and watch the daemon recover."""
    cluster, sysprof = build_monitored_pair(
        config=SysProfConfig(eviction_interval=0.05)
    )
    publisher = sysprof.monitor("server").daemon.publisher

    from tests.core.helpers import echo_server, request_client

    cluster.node("server").spawn("srv", echo_server)
    cluster.node("client").spawn(
        "cli", request_client, "server", 8080, 120, 10000, 0.02
    )

    _advance(cluster, 1.0)
    format_sends_before = publisher.format_sends
    received_before = sysprof.gpa.records_received
    assert received_before > 0

    sysprof.gpa.kill()
    _advance(cluster, 0.5)
    assert publisher.send_errors >= 1  # peer died mid-publish
    assert publisher.backoff_skips >= 1  # retries were paced, not hammered

    sysprof.gpa.restart()
    _advance(cluster, 2.0)
    sysprof.flush()
    assert publisher.reconnects >= 1
    # The fresh connection re-learned the format descriptors...
    assert publisher.format_sends > format_sends_before
    # ...and records flow into the restarted analyzer again.
    assert sysprof.gpa.records_received > received_before
    assert publisher.endpoints_abandoned == 0
    assert sysprof.gpa.stats()["restarts"] == 1


def test_no_fault_runs_are_digest_identical():
    """The recovery machinery must be invisible when nothing fails."""

    def one_run(arm_empty_schedule):
        cluster, sysprof = build_monitored_pair(seed=17)
        if arm_empty_schedule:
            FaultInjector(cluster, sysprof=sysprof).arm(FaultSchedule())
        drive_traffic(cluster, sysprof)
        digest = trace_digest(sysprof.gpa.query_interactions())
        return digest, sysprof.monitor("server").daemon.stats()

    plain_a, stats_a = one_run(False)
    plain_b, stats_b = one_run(False)
    armed, stats_c = one_run(True)
    assert plain_a == plain_b == armed
    assert stats_a == stats_b == stats_c
    for stats in (stats_a, stats_c):
        assert stats["send_errors"] == 0
        assert stats["reconnects"] == 0
        assert stats["backoff_skips"] == 0
        assert stats["endpoints_abandoned"] == 0
        assert stats["connect_attempts"] == 1  # the one real connect


def test_gpa_frames_received_is_cumulative_across_restarts():
    """Regression: ``restart()`` rebuilds the frame decoder, which used to
    silently zero ``stats()["frames_received"]`` — the one ingest counter
    that violated the documented stay-cumulative contract."""
    from tests.core.helpers import echo_server, request_client

    cluster, sysprof = build_monitored_pair()
    cluster.node("server").spawn("srv", echo_server)
    cluster.node("client").spawn(
        "cli", request_client, "server", 8080, 200, 10000, 0.02
    )
    _advance(cluster, 1.5)
    before = sysprof.gpa.stats()["frames_received"]
    assert before > 0
    sysprof.gpa.kill()
    _advance(cluster, 0.3)
    sysprof.gpa.restart()
    # The operator-facing counter is cumulative across the restart.
    assert sysprof.gpa.stats()["frames_received"] >= before
    _advance(cluster, 2.0)
    sysprof.flush()
    after = sysprof.gpa.stats()["frames_received"]
    assert after > before
    assert after == sysprof.gpa.frames_received
