"""Edge cases across the toolkit surface."""

import pytest

from repro.cluster import Cluster
from repro.core.encoding import FormatRegistry, decode_frame, encode_frame
from repro.core.kprof import Kprof
from repro.ossim.kernel import Kernel
from repro.ossim.costs import DEFAULT_COSTS
from repro.sim import SimError, Simulator


def test_empty_format_roundtrip():
    registry = FormatRegistry()
    fmt = registry.register("empty", ())
    blob = encode_frame(fmt, [])
    decoded_fmt, rows = decode_frame(registry, blob)
    assert decoded_fmt is fmt and rows == []


def test_format_descriptor_of_empty_format_adoptable():
    registry = FormatRegistry()
    fmt = registry.register("empty", ())
    fresh = FormatRegistry()
    adopted = fresh.adopt(fmt.describe())
    assert adopted.fields == ()


def test_kernel_without_nic_rejects_ip():
    kernel = Kernel(Simulator(), "bare", DEFAULT_COSTS)
    with pytest.raises(SimError, match="no NIC"):
        kernel.ip


def test_kernel_one_way_latency_fallback():
    kernel = Kernel(Simulator(), "bare", DEFAULT_COSTS)
    assert kernel.one_way_latency(kernel) == pytest.approx(50e-6)


def test_kprof_detach_restores_null():
    node = Cluster(seed=99).add_node("n")
    kprof = Kprof(node.kernel).attach()
    kprof.subscribe(["syscall.entry"], lambda e: None)
    kprof.detach()
    assert node.kernel.tracepoints.cost("syscall.entry") == 0.0
    node.kernel.tracepoints.fire("syscall.entry", pid=1)  # no-op, no crash


def test_cost_cache_invalidation_on_unsubscribe():
    node = Cluster(seed=99).add_node("n")
    kprof = Kprof(node.kernel).attach()
    sub = kprof.subscribe(["syscall.entry"], lambda e: None, cost=5e-6)
    first = kprof.cost("syscall.entry")
    kprof.unsubscribe(sub)
    assert kprof.cost("syscall.entry") < first


def test_interaction_record_repr_and_message_repr():
    from repro.core.interactions import InteractionRecord, MessageStats

    request = MessageStats(("a", 1), ("b", 2), 1.0)
    request.extend(1.1, 100)
    response = MessageStats(("b", 2), ("a", 1), 2.0)
    response.extend(2.1, 50)
    record = InteractionRecord("n", request, response)
    assert "Interaction" in repr(record)
    assert "100B" in repr(request)


def test_daemon_resends_format_per_endpoint_once():
    from tests.core.helpers import build_monitored_pair, drive_traffic

    cluster, sysprof = build_monitored_pair()
    drive_traffic(cluster, sysprof, count=12)
    daemon = sysprof.monitor("server").daemon
    # interaction + nodestats formats to a single endpoint: exactly one
    # descriptor each, on one tracked subscriber socket.
    assert daemon.publisher.format_sends == 2
    ((_sock, sent_names),) = daemon.publisher._formats_sent.values()
    assert sent_names == {"sysprof.interaction", "sysprof.nodestats"}
    assert sysprof.gpa.decode_errors == 0


def test_clock_identity_for_default_nodes():
    node = Cluster(seed=99).add_node("n")
    node.sim.run(until=1.5)
    assert node.local_time() == pytest.approx(1.5)


def test_task_stat_line_format():
    node = Cluster(seed=99).add_node("n")

    def worker(ctx):
        yield from ctx.compute(0.01)

    task = node.spawn("webby", worker)
    node.sim.run()
    line = task.stat_line(node.sim.now)
    assert line.startswith("{} (webby)".format(task.pid))
    assert "utime=0.01" in line
