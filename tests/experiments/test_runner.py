"""The parallel sweep runner: ordering, determinism, seed derivation."""

import time

from repro.experiments.runner import available_jobs, derive_seed, run_points


def _square(x):
    return x * x


def _slow_inverse(args):
    """Sleep longer for earlier points so completion order inverts."""
    index, total = args
    time.sleep(0.02 * (total - index))
    return index


def test_serial_path_runs_in_process():
    calls = []
    assert run_points(calls.append, [1, 2, 3], jobs=1) == [None, None, None]
    assert calls == [1, 2, 3]  # closures are fine when jobs == 1


def test_parallel_matches_serial():
    points = list(range(8))
    assert run_points(_square, points, jobs=4) == run_points(
        _square, points, jobs=1
    )


def test_results_come_back_in_submission_order():
    points = [(index, 4) for index in range(4)]
    assert run_points(_slow_inverse, points, jobs=4) == [0, 1, 2, 3]


def test_single_point_short_circuits():
    # Even with jobs > 1 a single point must not pay for a pool.
    calls = []
    run_points(calls.append, ["only"], jobs=8)
    assert calls == ["only"]


def test_jobs_none_means_all_cpus():
    assert available_jobs() >= 1
    assert run_points(_square, [2, 3], jobs=None) == [4, 9]


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(42, ("nfs", 4)) == derive_seed(42, ("nfs", 4))
    seeds = {derive_seed(42, ("nfs", threads)) for threads in (1, 2, 4, 8, 16)}
    assert len(seeds) == 5
    assert derive_seed(42, "a") != derive_seed(43, "a")
    assert all(0 <= seed < 2**31 - 1 for seed in seeds)
