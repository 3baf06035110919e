"""Custom Performance Analyzers: E-Code loaded into the kernel."""

import pytest

from repro.core.cpa import CustomAnalyzer
from repro.core.ecode import ECodeError
from repro.ossim import tracepoints as tp
from tests.core.helpers import build_monitored_pair, drive_traffic

SYSCALL_COUNTER = """
int entries = 0;
int reads = 0;
void handle(event e) {
    entries += 1;
    if (e.call == "recv") { reads += 1; }
}
double metric_entries() { return entries; }
double metric_reads() { return reads; }
"""


def test_cpa_installed_via_controller_counts_events():
    cluster, sysprof = build_monitored_pair()
    cpa = sysprof.controller.install_cpa(
        "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="sys-counter"
    )
    drive_traffic(cluster, sysprof, count=5)
    assert cpa.events_handled > 0
    assert cpa.read_global("entries") == cpa.events_handled
    assert 0 < cpa.read_global("reads") <= cpa.read_global("entries")


def test_cpa_metrics_reach_gpa():
    cluster, sysprof = build_monitored_pair()
    sysprof.controller.install_cpa(
        "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="sys-counter"
    )
    drive_traffic(cluster, sysprof, count=5)
    metrics = list(sysprof.gpa.cpa_metrics)
    assert metrics
    keys = {record["key"] for record in metrics}
    assert keys == {"entries", "reads"}
    assert all(record["analyzer"] == "sys-counter" for record in metrics)


def test_cpa_requires_handle_function():
    cluster, sysprof = build_monitored_pair()
    with pytest.raises(ECodeError, match="handle"):
        sysprof.controller.install_cpa(
            "server", "int x = 1;", [tp.SYSCALL_ENTRY], name="broken"
        )


def test_buggy_cpa_is_isolated():
    """A crashing analyzer must not take the kernel (or the run) down."""
    cluster, sysprof = build_monitored_pair()
    cpa = sysprof.controller.install_cpa(
        "server",
        "void handle(event e) { int x = 1 / 0; }",
        [tp.SYSCALL_ENTRY],
        name="crasher",
    )
    drive_traffic(cluster, sysprof, count=3)
    assert cpa.errors > 0
    assert cpa.events_handled == 0
    # The rest of the toolkit kept working.
    assert sysprof.lpa("server").tracker.interactions_emitted == 3


def test_duplicate_cpa_name_rejected():
    cluster, sysprof = build_monitored_pair()
    sysprof.controller.install_cpa(
        "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="dup"
    )
    with pytest.raises(ValueError, match="already installed"):
        sysprof.controller.install_cpa(
            "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="dup"
        )
    # A built-in analyzer's name is taken too: the CPA would shadow its
    # /proc entry and metrics, and uninstalling it would remove them.
    with pytest.raises(ValueError, match="already installed"):
        sysprof.controller.install_cpa(
            "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="nodestats-lpa"
        )


def test_uninstall_stops_delivery():
    cluster, sysprof = build_monitored_pair()
    cpa = sysprof.controller.install_cpa(
        "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="tmp"
    )
    drive_traffic(cluster, sysprof, count=3)
    handled = cpa.events_handled
    removed = sysprof.controller.uninstall_cpa("server", "tmp")
    assert removed is cpa
    assert cpa not in sysprof.monitor("server").daemon.lpas
    with pytest.raises(FileNotFoundError):
        cluster.node("server").kernel.procfs.read("/proc/sysprof/tmp")
    # Frames already on the wire land; after that no CPA row arrives.
    cluster.run(until=cluster.sim.now + 0.5)
    rows = len(sysprof.gpa.cpa_metrics)
    from tests.core.helpers import request_client

    cluster.node("client").spawn("cli2", request_client, "server", 8080, 3)
    cluster.run(until=cluster.sim.now + 2.0)
    assert cpa.events_handled == handled
    assert len(sysprof.gpa.cpa_metrics) == rows


def test_cpa_charges_cpu(cluster=None):
    """An installed CPA inflates the monitored node's kernel time."""
    cluster_a, sysprof_a = build_monitored_pair(seed=17)
    drive_traffic(cluster_a, sysprof_a, count=8)
    baseline = cluster_a.node("server").kernel.cpu.busy_time

    cluster_b, sysprof_b = build_monitored_pair(seed=17)
    sysprof_b.controller.install_cpa(
        "server", SYSCALL_COUNTER, [tp.SYSCALL_ENTRY], name="sys-counter",
        cost=5e-6,
    )
    drive_traffic(cluster_b, sysprof_b, count=8)
    with_cpa = cluster_b.node("server").kernel.cpu.busy_time
    assert with_cpa > baseline


def test_direct_cpa_construction_and_stats():
    cluster, sysprof = build_monitored_pair()
    monitor = sysprof.monitor("server")
    cpa = CustomAnalyzer(
        monitor.kernel, monitor.kprof, SYSCALL_COUNTER, [tp.SYSCALL_EXIT],
        name="direct",
    )
    monitor.daemon.add_lpa(cpa)
    cpa.start()
    drive_traffic(cluster, sysprof, count=2)
    stats = cpa.stats()
    assert stats["handled"] > 0
    assert stats["errors"] == 0
    assert cpa.metrics()["entries"] == stats["handled"]
