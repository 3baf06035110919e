#!/usr/bin/env python
"""Case study 1 (paper §3.2): find the bottleneck in a virtual storage service.

Two clients run an Iozone-like write/re-write workload against a
user-level NFS proxy backed by two storage servers.  SysProf monitors
the proxy and the backends; the analysis answers, per node, whether time
goes to user level, kernel level, or I/O — and names the bottleneck.

Run:  python examples/nfs_bottleneck.py [threads_per_client]
"""

import sys

from repro.analysis import find_bottleneck
from repro.experiments.common import format_table, mean_field
from repro.experiments.nfs_storage import NfsExperimentConfig, nfs_scenario


def main(threads_per_client=4):
    config = NfsExperimentConfig()
    backends = ["backend1", "backend2"]
    # The registered nfs scenario with the Figure-4/5 settings: skewed
    # node clocks NTP-synced to mgmt so the GPA can correlate.
    with nfs_scenario(threads_per_client, config) as scenario:
        cluster, sysprof = scenario.cluster, scenario.sysprof
        results = scenario.app["results"]
        cluster.run(until=cluster.sim.now + config.sim_limit)
    sysprof.flush()

    print("workload: {} RPCs from {} threads, mean client latency {:.2f} ms\n".format(
        results.count, 2 * threads_per_client, results.mean_latency * 1e3,
    ))

    rows = []
    proxy_ip = cluster.node("proxy").ip
    for node in ["proxy"] + backends:
        records = sysprof.gpa.query_interactions(node=node)
        if node == "proxy":
            records = [r for r in records if r["server_ip"] == proxy_ip]
        rows.append((
            node,
            len(records),
            mean_field(records, "user_time") * 1e3,
            mean_field(records, "kernel_wait") * 1e3,
            mean_field(records, "kernel_cpu") * 1e3,
            mean_field(records, "io_blocked") * 1e3,
            mean_field(records, "total_latency") * 1e3,
        ))
    print(format_table(
        ("node", "interactions", "user ms", "kwait ms", "kcpu ms",
         "io-blocked ms", "total ms"),
        rows,
        title="per-node interaction residency (SysProf, Figures 4/5 view)",
    ))

    print()
    report = find_bottleneck(sysprof.gpa, ["proxy"] + backends)
    print(report.describe())

    paths = sysprof.gpa.correlate_paths("proxy", backends)
    nested = [path for path in paths if path.downstream]
    if nested:
        # Under pipelined concurrency several backend interactions overlap
        # one proxy window; black-box time-containment cannot tell them
        # apart (the interleaving limitation the paper acknowledges), so
        # show the cleanest path.
        example = min(nested, key=lambda path: len(path.downstream))
        print("\nexample end-to-end breakdown (GPA causal path):")
        breakdown = example.breakdown()
        print("  at proxy: total {:.2f} ms (user {:.3f}, kernel {:.3f})".format(
            breakdown["total"] * 1e3,
            breakdown["upstream_user"] * 1e3,
            breakdown["upstream_kernel"] * 1e3,
        ))
        for hop in breakdown["downstream"]:
            print("  at {}: {:.2f} ms in kernel".format(
                hop["node"], hop["kernel"] * 1e3
            ))
        print("  network + proxy forward-wait residual: {:.2f} ms".format(
            breakdown["residual"] * 1e3
        ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
