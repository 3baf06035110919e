"""Figure 4: avg time spent by client-proxy interactions at the proxy.

Paper claims: "The amount of time a request spent at the user-level is
almost constant for different number of client threads but the kernel
time goes up because of increase in the request traffic."
"""

from repro.experiments.nfs_storage import NfsExperimentConfig, run_nfs_experiment
from benchmarks.conftest import report

CONFIG = NfsExperimentConfig(thread_counts=(1, 2, 4, 8, 16), ops_per_thread=20)


def _sweep():
    return [
        run_nfs_experiment(threads, CONFIG) for threads in CONFIG.thread_counts
    ]


def test_fig4_proxy_user_vs_kernel_time(once):
    results = once(_sweep)
    rows = [
        (r.threads_per_client, r.proxy_user_ms, r.proxy_kernel_ms,
         r.client_mean_latency_ms)
        for r in results
    ]
    report(
        "Figure 4: per-interaction time at the proxy vs iozone threads/client",
        ("threads", "user ms (paper: flat)", "kernel ms (paper: grows)",
         "client lat ms"),
        rows,
    )
    users = [r.proxy_user_ms for r in results]
    kernels = [r.proxy_kernel_ms for r in results]
    # User-level time ~constant across a 16x load range.
    assert max(users) < 2.0 * min(users) + 0.01
    # Kernel-level time grows with traffic.
    assert kernels[-1] > 1.5 * kernels[0]
    # And stays sub-proxy-scale (the proxy itself is not the bottleneck).
    assert max(kernels) < 10.0
