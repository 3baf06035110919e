"""The online diagnosis closed loop, end to end, plus its purity bounds.

Three contracts from the diagnosis design:

* the smoke-sized hog incident is detected online, blamed on the hogged
  node, drilled into, and fully unwound after resolution;
* an *installed* engine whose rules never fire is pure host-side
  analysis — same-seed trace hashes are byte-identical with the engine
  attached or absent (sketches enabled in both runs);
* sketch rows that crossed the real frame wire reproduce the exact
  percentiles of the shipped interaction stream within the sketch's
  2% relative-error budget.
"""

import math

import pytest

from repro.core import SysProfConfig
from repro.experiments.common import trace_digest
from repro.experiments.diagnose import run_diagnose_experiment, smoke_config
from repro.observability import DiagnosisEngine
from tests.core.helpers import build_monitored_pair, drive_traffic


def test_smoke_incident_closed_loop(golden):
    result = run_diagnose_experiment(smoke_config())
    assert result.detected
    assert 0.0 < result.detection_latency < 2.0
    expected = golden["diagnose_smoke"]
    observed = {
        "trace_hash": result.trace_hash,
        "detection_latency": result.detection_latency,
    }
    assert observed == expected, "diagnose smoke changed; observed {}".format(observed)
    assert result.blame_correct
    assert result.blamed_node == "backend1"
    assert result.blamed_stage.startswith("kernel")
    assert result.drilled and result.drill_restored
    assert result.interval_during == pytest.approx(result.interval_before / 4)
    assert result.resolved
    assert result.alerts_fired == 1
    assert result.sketch_rows > 0
    assert result.monitoring_share_overall > 0.0
    assert "[FIRING]" in result.dashboard
    assert result.trace_hash


def _sketched_run(with_engine):
    config = SysProfConfig(eviction_interval=0.05, latency_sketches=True)
    cluster, sysprof = build_monitored_pair(config=config)
    if with_engine:
        DiagnosisEngine(sysprof, rules=["p99(query) < 999999s"])
    drive_traffic(cluster, sysprof, count=40)
    assert sysprof.gpa.sketches.rows_ingested > 0
    return trace_digest(sysprof.gpa.query_interactions()), sysprof


def test_idle_engine_preserves_trace_hash():
    plain, _ = _sketched_run(with_engine=False)
    plain_again, _ = _sketched_run(with_engine=False)
    engined, sysprof = _sketched_run(with_engine=True)
    assert plain == plain_again  # the baseline itself is deterministic
    assert plain == engined
    engine = sysprof.gpa.diagnosis
    assert engine.evaluations > 0  # it really ran, it just never fired
    assert engine.alerts == []


def test_wire_sketch_matches_exact_percentiles():
    config = SysProfConfig(eviction_interval=0.05, latency_sketches=True)
    cluster, sysprof = build_monitored_pair(config=config)
    drive_traffic(cluster, sysprof, count=120, run_until=4.0)
    records = [
        record for record in sysprof.gpa.query_interactions(node="server")
        if record["request_class"] == "query"
    ]
    assert len(records) >= 100
    latencies = sorted(record["total_latency"] for record in records)
    sketch = sysprof.gpa.sketches.merged(
        request_class="query", metric="latency", node="server"
    )
    assert sketch.count == len(latencies)
    for q in (0.5, 0.9, 0.99):
        exact = latencies[math.ceil(q * (len(latencies) - 1))]
        estimate = sketch.quantile(q)
        assert abs(estimate - exact) / exact <= 0.02, "q={}".format(q)
