"""The injector against live clusters: links, partitions, crashes."""

import pytest

from repro.cluster import Cluster
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.errors import ConnectionReset, SimError
from tests.core.helpers import echo_server


def _pair():
    cluster = Cluster(seed=21)
    cluster.add_node("a")
    cluster.add_node("b")
    return cluster


def test_link_outage_window_controls_reachability():
    cluster = _pair()
    cluster.add_node("c")
    injector = FaultInjector(cluster)
    injector.arm(FaultSchedule().link_outage(0.5, 1.0, "b"))
    a_ip, b_ip, c_ip = (cluster.node(n).ip for n in "abc")
    seen = {}

    def probe(label):
        seen[label] = (
            cluster.fabric.reachable(a_ip, b_ip),
            cluster.fabric.reachable(a_ip, c_ip),
        )

    cluster.sim.schedule(0.75, probe, "down")
    cluster.sim.schedule(2.0, probe, "up")
    cluster.run(until=3.0)
    assert seen["down"] == (False, True)  # only b's port is dark
    assert seen["up"] == (True, True)
    assert injector.summary() == {"link_down": 1, "link_up": 1}


def test_partition_cuts_connections_and_heals():
    cluster = _pair()
    cluster.add_node("mgmt")  # unmapped: keeps sight of both sides
    cluster.node("b").spawn("srv", echo_server)

    outcomes = {}

    def client(ctx):
        sock = yield from ctx.connect("b", 8080)
        for index in range(50):
            try:
                yield from ctx.send_message(sock, 2000, kind="query")
            except ConnectionReset:
                outcomes["reset_at"] = ctx.now
                return "cut"
            reply = yield from ctx.recv_message(sock)
            if reply is None:
                outcomes["reset_at"] = ctx.now
                return "cut"
            yield from ctx.sleep(0.05)
        return "finished"

    task = cluster.node("a").spawn("cli", client)
    injector = FaultInjector(cluster)
    injector.arm(FaultSchedule().partition_window(0.5, 1.0, [["a"], ["b"]]))
    a_ip, b_ip, m_ip = (cluster.node(n).ip for n in ("a", "b", "mgmt"))
    mid = {}
    cluster.sim.schedule(
        0.75,
        lambda: mid.update(
            ab=cluster.fabric.reachable(a_ip, b_ip),
            am=cluster.fabric.reachable(a_ip, m_ip),
            bm=cluster.fabric.reachable(b_ip, m_ip),
        ),
    )
    cluster.run(until=3.0)
    # The established connection was aborted when the partition landed.
    assert task.exit_value == "cut"
    assert 0.5 <= outcomes["reset_at"] < 1.0
    # Unmapped mgmt saw both halves throughout.
    assert mid == {"ab": False, "am": True, "bm": True}
    assert cluster.fabric.reachable(a_ip, b_ip)  # healed


def test_node_crash_kills_tasks_and_resets_peers():
    cluster = _pair()
    cluster.node("b").spawn("srv", echo_server)

    def client(ctx):
        sock = yield from ctx.connect("b", 8080)
        yield from ctx.send_message(sock, 1000, kind="query")
        yield from ctx.recv_message(sock)
        while True:
            reply = yield from ctx.recv_message(sock)
            if reply is None:
                return "peer-died"

    task = cluster.node("a").spawn("cli", client)
    injector = FaultInjector(cluster)
    injector.arm(FaultSchedule().crash_node(0.5, "b"))
    cluster.run(until=2.0)
    assert task.exit_value == "peer-died"
    assert all(
        t.state == "exited" for t in cluster.node("b").kernel.tasks.values()
    )
    assert cluster.node("b").kernel._sockets == {}


def test_connect_into_partition_fails_after_handshake_wait():
    cluster = _pair()
    injector = FaultInjector(cluster)
    injector.arm(FaultSchedule().partition(0.0, [["a"], ["b"]]))

    def dialer(ctx):
        try:
            yield from ctx.connect("b", 8080)
        except SimError as error:
            return str(error)
        return "connected"

    task = cluster.node("a").spawn("dial", dialer)
    cluster.run(until=1.0)
    assert "no route to host" in task.exit_value


def test_arm_twice_and_past_events_rejected():
    cluster = _pair()
    injector = FaultInjector(cluster)
    injector.arm(FaultSchedule())
    with pytest.raises(SimError):
        injector.arm(FaultSchedule())
    cluster.run(until=1.0)
    with pytest.raises(SimError):
        FaultInjector(cluster).arm(FaultSchedule().heal(0.5))


def test_daemon_fault_without_sysprof_is_an_error():
    cluster = _pair()
    injector = FaultInjector(cluster)
    injector.arm(FaultSchedule().kill_daemon(0.1, "b"))
    with pytest.raises(SimError):
        cluster.run(until=1.0)


def test_jittered_times_are_seed_deterministic():
    def fire_times(seed):
        cluster = Cluster(seed=seed)
        cluster.add_node("a")
        cluster.add_node("b")
        injector = FaultInjector(cluster)
        injector.arm(
            FaultSchedule().link_outage(0.5, 1.0, "b", jitter=0.3)
        )
        cluster.run(until=3.0)
        return [entry["at"] for entry in injector.log]

    first, second = fire_times(33), fire_times(33)
    assert first == second
    assert first != [0.5, 1.5]  # jitter actually moved the events
    assert fire_times(34) != first  # and is seed-dependent


def test_inject_registers_events_mid_run_relative_to_now():
    cluster = Cluster(seed=7)
    cluster.add_node("a")
    cluster.add_node("b")
    injector = FaultInjector(cluster)
    cluster.run(until=1.0)
    # arm() is a one-shot; inject() is the live control plane and may be
    # called repeatedly, offsets relative to the current time.
    registered = injector.inject(
        FaultSchedule().cpu_hog(0.25, "a", 0.2, utilization=1.0)
    )
    assert registered == [
        {"kind": "cpu_hog", "target": "a", "at": pytest.approx(1.25)}
    ]
    injector.inject(FaultSchedule().cpu_hog(0.75, "b", 0.2))
    cluster.run(until=3.0)
    assert [entry["at"] for entry in injector.log] == [
        pytest.approx(1.25), pytest.approx(1.75)
    ]
    assert injector.summary() == {"cpu_hog": 2}
    assert injector.injected == 2
    assert injector.stats()["injected"] == 2


def test_inject_rejects_events_in_the_past():
    cluster = Cluster(seed=7)
    cluster.add_node("a")
    injector = FaultInjector(cluster)
    cluster.run(until=1.0)
    with pytest.raises(SimError, match="past"):
        injector.inject(FaultSchedule().cpu_hog(0.5, "a", 0.2), base=0.0)


def test_inject_checks_every_event_before_registering_any():
    cluster = Cluster(seed=7)
    cluster.add_node("a")
    cluster.add_node("b")
    injector = FaultInjector(cluster)
    cluster.run(until=1.0)
    bad = [
        FaultSchedule().cpu_hog(0.25, "a", 0.2).link_down(0.5, "nosuch"),
        FaultSchedule().partition(0.5, [["a"], ["ghost"]]),
        FaultSchedule().kill_daemon(0.5, "a"),  # no SysProf installed
        FaultSchedule().kill_zone_gpa(0.5, "zone0"),  # no federation
    ]
    for schedule in bad:
        with pytest.raises(SimError):
            injector.inject(schedule)
    cluster.run(until=3.0)
    assert injector.injected == 0
    assert injector.fired == 0
