"""Acceptance: scripted outages end-to-end through the failures experiment.

These are the PR's acceptance criteria in executable form: a scripted
daemon crash is detected by ``gpa.stale_nodes()`` while it lasts, the
daemon reconnects afterwards with backoff-paced (not per-publish) dials,
and two same-seed/same-schedule runs are bit-identical.
"""

from dataclasses import asdict, replace

import pytest

from repro.experiments import FailureExperimentConfig, run_failure_experiment

# One shared, shortened config: the stock 30s run is benchmark-sized.
_BASE = FailureExperimentConfig(
    fault_start=3.0,
    fault_duration=3.0,
    ops_per_thread=24,
    sim_limit=14.0,
)


@pytest.fixture(scope="module")
def daemon_crash_result():
    return run_failure_experiment(replace(_BASE, scenario="daemon-crash"))


@pytest.fixture(scope="module")
def partition_result():
    return run_failure_experiment(replace(_BASE, scenario="partition"))


def _assert_golden(result, golden):
    observed = asdict(result)
    assert observed == golden["failures"][result.scenario], (
        "{} run changed; observed {}".format(result.scenario, observed)
    )


def test_daemon_crash_is_detected_and_recovers(daemon_crash_result, golden):
    result = daemon_crash_result
    _assert_golden(result, golden)
    assert result.detected
    # stale_nodes() can only flag the node after stale_threshold of
    # silence, quantized to the probe grid.
    floor = _BASE.stale_threshold
    ceiling = floor + 4 * _BASE.check_interval + _BASE.eviction_interval
    assert floor <= result.detection_latency <= ceiling
    assert result.recovered
    assert 0.0 <= result.recovery_latency <= 2.0
    assert result.reconnects >= 1
    assert result.endpoints_abandoned == 0
    assert result.injected == {"daemon_kill": 1, "daemon_restart": 1}


def test_partition_outage_backoff_bounds_dials(partition_result, golden):
    result = partition_result
    _assert_golden(result, golden)
    assert result.detected and result.recovered
    # The daemon saw the peer vanish mid-publish, then retried on the
    # backoff schedule: skips (closed windows) outnumber actual dials.
    assert result.send_errors >= 1
    assert result.reconnects >= 1
    assert result.backoff_skips > result.connect_attempts
    # ~15 eviction wakeups happen during the 3s outage; without pacing
    # each would dial.  The exponential schedule keeps it to a handful.
    wakeups_during_outage = _BASE.fault_duration / _BASE.eviction_interval
    assert result.connect_attempts < wakeups_during_outage
    assert result.endpoints_abandoned == 0
    assert result.injected == {"partition": 1, "heal": 1}


def test_records_flow_again_after_recovery(daemon_crash_result):
    assert daemon_crash_result.records_received > 0
    assert daemon_crash_result.trace_hash


@pytest.mark.parametrize("scenario", ["daemon-crash", "partition"])
def test_same_seed_same_schedule_runs_are_identical(scenario):
    config = replace(_BASE, scenario=scenario, fault_jitter=0.4)
    first = run_failure_experiment(config)
    second = run_failure_experiment(config)
    assert first == second  # dataclass equality: every field, trace hash too
    assert first.fault_at != _BASE.fault_start  # jitter actually applied


def test_seed_changes_move_the_jittered_fault():
    config = replace(_BASE, scenario="daemon-crash", fault_jitter=0.4)
    first = run_failure_experiment(config)
    other = run_failure_experiment(replace(config, seed=config.seed + 1))
    assert first.fault_at != other.fault_at
