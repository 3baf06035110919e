"""Small-scale end-to-end checks of the §3.2 storage experiment shapes."""

import pytest

from repro.analysis import find_bottleneck
from repro.experiments import NfsExperimentConfig, run_nfs_experiment
from repro.experiments.nfs_storage import nfs_scenario

CONFIG = NfsExperimentConfig(
    thread_counts=(1, 4), ops_per_thread=10, rewrite=False, sim_limit=200.0
)


@pytest.fixture(scope="module")
def sweep():
    return {
        threads: run_nfs_experiment(threads, CONFIG) for threads in (1, 4)
    }


def test_all_rpcs_complete(sweep):
    for threads, result in sweep.items():
        expected = CONFIG.clients * threads * (10 + 1) + CONFIG.clients * threads * 1
        # writes + lookup + at least one commit per thread
        assert result.rpc_count >= CONFIG.clients * threads * 11


def test_proxy_user_time_flat(sweep):
    """Figure 4: user-level time per interaction ~constant across load."""
    low, high = sweep[1].proxy_user_ms, sweep[4].proxy_user_ms
    assert high == pytest.approx(low, rel=0.5)
    assert low < 0.2


def test_backend_kernel_dominates_proxy(sweep):
    """Figure 5: the back-end server is the major latency contributor."""
    for result in sweep.values():
        assert result.backend_kernel_ms > result.proxy_kernel_ms
    assert sweep[4].backend_to_proxy_ratio > 3.0


def test_backend_has_no_user_time(sweep):
    """nfsd is a kernel daemon: zero user-level time at the back-end."""
    for result in sweep.values():
        assert result.backend_user_ms == pytest.approx(0.0, abs=1e-6)


def test_backend_time_grows_with_threads(sweep):
    assert sweep[4].backend_kernel_ms > 1.5 * sweep[1].backend_kernel_ms


def test_network_rtt_insignificant(sweep):
    """Paper: round-trip delay < 0.3 ms, insignificant vs the back-end."""
    result = sweep[4]
    assert result.network_rtt_ms < 0.3
    assert result.network_rtt_ms < result.backend_kernel_ms / 5


def test_causal_paths_correlated(sweep):
    """The GPA nests backend interactions inside proxy interactions even
    with skewed node clocks (NTP-corrected)."""
    for result in sweep.values():
        assert result.causal_paths > 0


def test_bottleneck_analysis_names_backend():
    config = NfsExperimentConfig(
        thread_counts=(2,), ops_per_thread=8, rewrite=False, sim_limit=200.0
    )
    with nfs_scenario(2, config) as scenario:
        scenario.cluster.run(until=200.0)
    scenario.sysprof.flush()
    report = find_bottleneck(
        scenario.sysprof.gpa, ["proxy", "backend1", "backend2"]
    )
    assert report.bottleneck in ("backend1", "backend2")
