"""Trace-hash determinism against stored golden digests.

The hard constraint on every engine optimization: same seed => byte
identical GPA traces.  These tests hash the full interaction trace of
the NFS and RUBiS experiments and require the hash to (a) equal the
golden digest in ``tests/fixtures/golden_digests.json``, (b) survive a
re-run, and (c) survive fanning the sweep out over worker processes.

The golden digests were recorded while the heap-store oracle, the
pure-store dispatch loop and the per-record wire mode still existed and
all produced these same hashes.
"""

import pytest

from repro.experiments import run_points
from repro.experiments.nfs_storage import (
    NfsExperimentConfig,
    _sweep_point,
    run_nfs_experiment,
    run_thread_sweep,
)
from repro.experiments.rubis_qos import (
    RubisExperimentConfig,
    run_rubis_experiment,
)

NFS_CONFIG = NfsExperimentConfig(
    thread_counts=(1, 2), ops_per_thread=6, rewrite=False, sim_limit=200.0
)

RUBIS_CONFIG = RubisExperimentConfig(
    duration=5.0, load_at=2.5, rate_per_class=80.0, sessions_per_class=8,
    slots_per_servlet=8,
)


@pytest.fixture(scope="module")
def nfs_baseline():
    return [
        run_nfs_experiment(threads, NFS_CONFIG).trace_hash
        for threads in NFS_CONFIG.thread_counts
    ]


def test_nfs_trace_hash_matches_golden(nfs_baseline, golden):
    observed = dict(zip(("1", "2"), nfs_baseline))
    assert observed == golden["trace_digests"]["nfs"], (
        "NFS trace digests changed; observed {}".format(observed)
    )


def test_nfs_trace_hash_repeatable(nfs_baseline):
    again = run_nfs_experiment(1, NFS_CONFIG).trace_hash
    assert again == nfs_baseline[0]
    assert all(nfs_baseline)  # non-empty hashes


def test_nfs_trace_hash_identical_under_jobs(nfs_baseline):
    parallel = run_thread_sweep(NFS_CONFIG, jobs=4)
    assert [result.trace_hash for result in parallel] == nfs_baseline


def test_nfs_worker_entry_point_matches_direct_call(nfs_baseline):
    assert _sweep_point((2, NFS_CONFIG)).trace_hash == nfs_baseline[1]


@pytest.fixture(scope="module")
def rubis_baseline():
    return run_rubis_experiment("dwcs", RUBIS_CONFIG).trace_hash


def test_rubis_trace_hash_matches_golden(rubis_baseline, golden):
    expected = golden["trace_digests"]["rubis"]["dwcs"]
    assert rubis_baseline == expected, (
        "RUBiS dwcs trace digest changed; observed {}".format(rubis_baseline)
    )


def test_rubis_trace_hash_repeatable(rubis_baseline):
    assert rubis_baseline
    again = run_rubis_experiment("dwcs", RUBIS_CONFIG).trace_hash
    assert again == rubis_baseline


def test_rubis_trace_hash_identical_under_jobs(rubis_baseline):
    from repro.experiments.rubis_qos import _comparison_point

    parallel = run_points(
        _comparison_point,
        [("dwcs", RUBIS_CONFIG, True), ("radwcs", RUBIS_CONFIG, True)],
        jobs=2,
    )
    assert parallel[0].trace_hash == rubis_baseline
    # The radwcs run is a different schedule; its trace must differ.
    assert parallel[1].trace_hash != rubis_baseline
