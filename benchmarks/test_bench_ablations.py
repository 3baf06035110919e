"""Ablations over SysProf's "performance gears" (paper §5: "selective
monitoring, hierarchical analysis, per-CPU buffers, kernel-level
messaging and others keep the overhead low").

Each ablation disables one design choice and measures what it costs.
"""

from repro.cluster import Cluster
from repro.core import SysProf, SysProfConfig
from repro.workloads.iperf import run_iperf
from benchmarks.conftest import report


def _iperf_cluster(seed=42):
    cluster = Cluster(seed=seed)
    cluster.add_node("tx")
    cluster.add_node("rx")
    cluster.add_node("mgmt")
    return cluster


def _install(cluster, config=None):
    sysprof = SysProf(cluster, config or SysProfConfig(eviction_interval=0.05))
    sysprof.install(monitored=["rx"], gpa_node="mgmt")
    sysprof.start()
    return sysprof


def test_selective_monitoring(once):
    """Gear 1: subscribe only to what the analysis needs."""

    def run():
        results = {}
        for label, masked in (
            ("interaction events only", ["scheduling", "syscall",
                                         "filesystem", "block"]),
            ("everything on", []),
            ("all masked (off)", ["network", "scheduling", "syscall",
                                  "filesystem", "block"]),
        ):
            cluster = _iperf_cluster()
            sysprof = _install(cluster)
            if masked:
                sysprof.controller.disable_events(masked, node="rx")
            results[label] = run_iperf(cluster, "tx", "rx", duration=0.25).mbps
        return results

    results = once(run)
    report(
        "ablation: selective monitoring (iperf goodput, Mbps)",
        ("configuration", "Mbps"),
        sorted(results.items()),
    )
    assert results["all masked (off)"] > results["interaction events only"]
    assert results["interaction events only"] >= results["everything on"]


def _echo_traffic(cluster, count=200, think=0.0005, connections=1):
    """Request/response traffic so the interaction LPA produces records.

    ``connections`` parallel clients with ``think=0`` produce record
    bursts while the CPU is saturated with interrupt work — the regime
    buffering exists for.
    """

    def server(ctx):
        lsock = yield from ctx.listen(8080)
        while True:
            sock = yield from ctx.accept(lsock)
            ctx.spawn("handler", _handler, sock)

    def _handler(ctx, sock):
        while True:
            message = yield from ctx.recv_message(sock)
            if message is None:
                break
            yield from ctx.send_message(sock, 400, kind="reply")

    def client(ctx):
        sock = yield from ctx.connect("rx", 8080)
        for _ in range(count):
            yield from ctx.send_message(sock, 600, kind="query")
            yield from ctx.recv_message(sock)
            if think:
                yield from ctx.sleep(think)
        yield from ctx.close(sock)

    cluster.node("rx").spawn("srv", server)
    for index in range(connections):
        cluster.node("tx").spawn("cli{}".format(index), client)
    cluster.run(until=10.0)


def test_buffer_sizing(once):
    """Gear 2: per-CPU double buffers; capacity trades loss vs freshness."""

    def run():
        rows = []
        for capacity in (4, 32, 256):
            cluster = _iperf_cluster()
            sysprof = _install(
                cluster,
                SysProfConfig(eviction_interval=1.0, buffer_capacity=capacity,
                              nodestats=False),
            )
            _echo_traffic(cluster)
            stats = sysprof.lpa("rx").buffer.stats()
            rows.append((capacity, stats["appended"], stats["lost"],
                         stats["switches"]))
        return rows

    rows = once(run)
    report(
        "ablation: double-buffer capacity under a slow (1 s) daemon timer",
        ("capacity", "appended", "lost", "switches"),
        rows,
    )
    # Smaller buffers switch much more often.
    assert rows[0][3] > rows[-1][3]


def test_buffer_loss_vs_production_rate(once):
    """Gear 2b: when does the double-buffer pair start shedding records?

    Direct mechanism microbenchmark: a synthetic in-kernel producer emits
    fixed-format records at increasing rates; the real dissemination
    daemon consumes them.  At moderate rates the pair absorbs everything;
    past the daemon's drain bandwidth, "if the data is not picked up in a
    timely fashion, it may be overwritten" (paper) and loss appears.
    """

    def run():
        from repro.core.lpa import INTERACTION_FORMAT

        template = {
            fname: ("x" if ftype.startswith("str") else 0)
            for fname, ftype in INTERACTION_FORMAT[1]
        }
        rows = []
        for gap_us in (20.0, 5.0, 2.0):
            cluster = _iperf_cluster()
            sysprof = _install(
                cluster,
                SysProfConfig(eviction_interval=0.5, buffer_capacity=8,
                              nodestats=False),
            )
            buffer = sysprof.lpa("rx").buffer
            gap = gap_us * 1e-6

            def produce(buffer=buffer, sim=cluster.sim, gap=gap, deadline=0.02):
                buffer.append(dict(template))
                if sim.now < deadline:
                    sim.schedule(gap, produce)

            cluster.sim.schedule(0.0, produce)
            cluster.run(until=0.3)
            stats = buffer.stats()
            rate_krps = 1000.0 / gap_us
            loss_pct = 100.0 * stats["lost"] / max(1, stats["appended"])
            rows.append((rate_krps, stats["appended"], stats["lost"], loss_pct))
        return rows

    rows = once(run)
    report(
        "ablation: double-buffer record loss vs production rate",
        ("rate (k records/s)", "appended", "lost", "loss %"),
        rows,
    )
    # Moderate rate: the pair keeps up.  Saturated rate: loss appears.
    assert rows[0][3] < 1.0
    assert rows[-1][3] > rows[0][3]


def test_encoding_cost(once):
    """Gear 3: PBIO-style binary encoding vs text payloads."""

    def run():
        results = {}
        for label, text in (("binary (PBIO-style)", False), ("text", True)):
            cluster = _iperf_cluster()
            sysprof = _install(
                cluster,
                SysProfConfig(eviction_interval=0.02, buffer_capacity=16,
                              text_encoding=text),
            )
            mbps = run_iperf(cluster, "tx", "rx", duration=0.25).mbps
            daemon = sysprof.monitor("rx").daemon
            results[label] = (mbps, daemon.publisher.bytes_published,
                              daemon.records_published)
        return results

    results = once(run)
    rows = [
        (label, mbps, bytes_out, records)
        for label, (mbps, bytes_out, records) in sorted(results.items())
    ]
    report(
        "ablation: dissemination encoding",
        ("encoding", "iperf Mbps", "bytes published", "records"),
        rows,
    )
    binary_bytes = results["binary (PBIO-style)"][1]
    text_bytes = results["text"][1]
    binary_records = results["binary (PBIO-style)"][2]
    text_records = results["text"][2]
    # Normalize per record: text is far fatter on the wire.
    assert text_bytes / max(1, text_records) > 2.0 * binary_bytes / max(
        1, binary_records
    )


def test_hierarchical_analysis(once):
    """Gear 4: in-kernel aggregation (class granularity) vs shipping every
    interaction record to the GPA."""

    def run():
        results = {}
        for label, granularity in (
            ("per-interaction records", "interaction"),
            ("in-kernel class aggregation", "class"),
        ):
            cluster = _iperf_cluster()
            sysprof = _install(
                cluster,
                SysProfConfig(eviction_interval=0.02, buffer_capacity=16,
                              granularity=granularity),
            )
            run_iperf(cluster, "tx", "rx", duration=0.25)
            sysprof.flush()
            daemon = sysprof.monitor("rx").daemon
            results[label] = (daemon.records_published,
                              daemon.publisher.bytes_published)
        return results

    results = once(run)
    rows = [
        (label, records, bytes_out)
        for label, (records, bytes_out) in sorted(results.items())
    ]
    report(
        "ablation: hierarchical analysis (what crosses the network)",
        ("strategy", "records published", "bytes published"),
        rows,
        notes=("iperf is one long flow: aggregation wins as soon as the "
               "workload has more interactions than classes",),
    )
    assert results["in-kernel class aggregation"][1] <= results[
        "per-interaction records"
    ][1] * 1.5


def test_dedicated_monitoring_core(once):
    """Paper §5 (future work): "it won't be unusual to have a core
    dedicated to the analysis of the services that run on that platform."

    A 2-core monitored server with the workload pinned to core 0:
    pinning sysprofd to core 1 moves the dissemination work off the
    workload's core entirely.
    """

    def run():
        rows = []
        for label, cpus, affinity in (
            ("1 core, shared", 1, None),
            ("2 cores, daemon floats", 2, None),
            ("2 cores, daemon pinned to core 1", 2, 1),
        ):
            cluster = Cluster(seed=64)
            cluster.add_node("tx")
            cluster.add_node("rx", cpus=cpus)
            cluster.add_node("mgmt")
            sysprof = SysProf(
                cluster,
                SysProfConfig(eviction_interval=0.01, buffer_capacity=8,
                              daemon_affinity=affinity),
            )
            sysprof.install(monitored=["rx"], gpa_node="mgmt")
            sysprof.start()
            _echo_traffic(cluster, count=300, think=0.0005)
            kernel = cluster.node("rx").kernel
            daemon_task = sysprof.monitor("rx").daemon.task
            if cpus == 1:
                core0_busy = kernel.cpu.busy_time
                core1_busy = 0.0
            else:
                core0_busy = kernel.cpu.core(0).busy_time
                core1_busy = kernel.cpu.core(1).busy_time
            rows.append((label, daemon_task.cpu_time * 1e3,
                         core0_busy * 1e3, core1_busy * 1e3))
        return rows

    rows = once(run)
    report(
        "ablation: dedicated analysis core (server node, ms of CPU)",
        ("configuration", "daemon cpu", "core0 busy", "core1 busy"),
        rows,
    )
    shared_core0 = rows[0][2]
    pinned_core0 = rows[2][2]
    pinned_core1 = rows[2][3]
    # Pinning moves daemon work onto core 1 and relieves core 0.
    assert pinned_core1 > 0
    assert pinned_core0 < shared_core0
