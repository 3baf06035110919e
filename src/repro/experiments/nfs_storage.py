"""§3.2: bottleneck detection in the shared NFS virtual storage service.

Reproduces Figures 4 and 5: two client nodes run Iozone write/re-write
with a varying thread count against a user-level proxy backed by NFS
servers.  SysProf's interaction LPA on the proxy and backend nodes
reports, per client thread count:

* Figure 4 — average user-level vs kernel-level time of client<->proxy
  interactions at the proxy (user flat, kernel grows with traffic);
* Figure 5 — average kernel time of interactions at the back-end server
  (an order of magnitude above the proxy; no user time — nfsd is a
  kernel daemon).
"""

from dataclasses import dataclass

from repro.apps.nfs.service import VirtualStorageService
from repro.cluster import Cluster, NodeClock, synchronize
from repro.core import SysProf, SysProfConfig
from repro.experiments.common import mean_field, trace_digest
from repro.experiments.runner import run_points
from repro.ossim.costs import CostModel
from repro.workloads.iozone import IozoneConfig, IozoneResults, spawn_iozone


@dataclass
class NfsRunResult:
    threads_per_client: int
    proxy_user_ms: float
    proxy_kernel_ms: float
    backend_kernel_ms: float
    backend_user_ms: float
    backend_to_proxy_ratio: float
    client_mean_latency_ms: float
    rpc_count: int
    network_rtt_ms: float
    causal_paths: int = 0
    trace_hash: str = ""


@dataclass
class NfsExperimentConfig:
    thread_counts: tuple = (1, 2, 4, 8, 16)
    clients: int = 2
    backends: int = 2
    ops_per_thread: int = 24
    rewrite: bool = True
    pipeline: int = 2
    commit_every: int = 8
    proxy_parse_cost: float = 30e-6
    proxy_reply_cost: float = 15e-6
    disk_transfer_bps: float = 30e6
    seed: int = 9
    sim_limit: float = 400.0
    clock_skew: bool = True
    eviction_interval: float = 0.2  # buffer flush / sampling period
    syscall_stats: bool = False  # per-syscall aggregation LPA (more probes)


def build_cluster(config):
    costs = CostModel().override(disk_transfer_bps=config.disk_transfer_bps)
    cluster = Cluster(seed=config.seed, costs=costs)
    for index in range(config.clients):
        cluster.add_node("client{}".format(index + 1))
    # Per-node clock skew keeps the GPA's NTP correction honest.
    skews = (0.120, -0.045, 0.090)
    cluster.add_node(
        "proxy",
        clock=NodeClock(offset=skews[0] if config.clock_skew else 0.0),
    )
    for index in range(config.backends):
        cluster.add_node(
            "backend{}".format(index + 1),
            with_disk=True,
            clock=NodeClock(
                offset=skews[1 + index % 2] if config.clock_skew else 0.0
            ),
        )
    cluster.add_node("mgmt")
    return cluster


def run_nfs_experiment(threads_per_client, config=None):
    """One point of Figures 4/5 at the given per-client thread count."""
    config = config or NfsExperimentConfig()
    cluster = build_cluster(config)
    backend_names = ["backend{}".format(i + 1) for i in range(config.backends)]

    clock_table = synchronize(cluster, "mgmt") if config.clock_skew else None

    service = VirtualStorageService(
        cluster, "proxy", backend_names,
        proxy_parse_cost=config.proxy_parse_cost,
        proxy_reply_cost=config.proxy_reply_cost,
    ).start()

    sysprof = SysProf(
        cluster,
        SysProfConfig(
            eviction_interval=config.eviction_interval,
            syscall_stats=config.syscall_stats,
        ),
        clock_table=clock_table,
    )
    sysprof.install(monitored=["proxy"] + backend_names, gpa_node="mgmt")
    sysprof.start()

    iozone_config = IozoneConfig(
        threads=threads_per_client,
        ops_per_thread=config.ops_per_thread,
        rewrite=config.rewrite,
        pipeline=config.pipeline,
        commit_every=config.commit_every,
    )
    results = IozoneResults()
    for index in range(config.clients):
        spawn_iozone(
            cluster.node("client{}".format(index + 1)), "proxy",
            iozone_config, results,
        )
    cluster.run(until=cluster.sim.now + config.sim_limit)
    if results.threads_done != config.clients * threads_per_client:
        raise RuntimeError(
            "iozone did not finish within the simulation limit "
            "({}/{} threads)".format(
                results.threads_done, config.clients * threads_per_client
            )
        )
    sysprof.flush()

    proxy_ip = cluster.node("proxy").ip
    proxy_records = [
        record
        for record in sysprof.gpa.query_interactions(node="proxy")
        if record["server_ip"] == proxy_ip
    ]
    backend_records = []
    for name in backend_names:
        backend_records.extend(sysprof.gpa.query_interactions(node=name))

    paths = sysprof.gpa.correlate_paths("proxy", backend_names)
    proxy_kernel = mean_field(proxy_records, "kernel_time")
    backend_kernel = mean_field(backend_records, "kernel_time")
    return NfsRunResult(
        threads_per_client=threads_per_client,
        proxy_user_ms=mean_field(proxy_records, "user_time") * 1e3,
        proxy_kernel_ms=proxy_kernel * 1e3,
        backend_kernel_ms=backend_kernel * 1e3,
        backend_user_ms=mean_field(backend_records, "user_time") * 1e3,
        backend_to_proxy_ratio=(backend_kernel / proxy_kernel) if proxy_kernel else 0.0,
        client_mean_latency_ms=results.mean_latency * 1e3,
        rpc_count=results.count,
        network_rtt_ms=2.0 * cluster.one_way_latency() * 1e3,
        causal_paths=sum(1 for path in paths if path.downstream),
        trace_hash=trace_digest(sysprof.gpa.query_interactions()),
    )


def _sweep_point(args):
    """Picklable worker for one Figure-4/5 sweep point."""
    threads, config = args
    return run_nfs_experiment(threads, config)


def run_thread_sweep(config=None, jobs=1):
    """Figures 4 and 5: one :class:`NfsRunResult` per thread count.

    ``jobs > 1`` fans the sweep points out over worker processes; every
    point builds its own cluster from ``config.seed``, so results (and
    GPA trace hashes) are identical to the serial run.
    """
    config = config or NfsExperimentConfig()
    return run_points(
        _sweep_point,
        [(threads, config) for threads in config.thread_counts],
        jobs=jobs,
    )
