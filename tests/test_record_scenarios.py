"""tools/record_scenarios.py: one scenario-benchmark full set becomes a
``BENCH_scenarios.json`` trajectory entry, and nothing else does."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import record_scenarios  # noqa: E402


def _workload(digest, correct=True):
    summary = {"median": 1.5, "q1": 1.4, "q3": 1.6, "n": 5, "unit": "sim_s/s",
               "values": [1.3, 1.4, 1.5, 1.6, 1.7]}
    return {
        "correct": correct, "problems": [] if correct else ["rep 1: broken"],
        "horizon": 3.0, "seed": None, "attempted": 6, "failed": 0,
        "host_speed": 1.0, "digest": digest, "traced_digest": digest,
        "metrics": {"sim_s_per_wall_s": summary,
                    "setup_s": dict(summary, unit="s")},
        "layers": {"sim.events": 603283, "sim.process_resumes": 121747,
                   "ossim.cpu_submits": 90000, "netsim.packets": 40000,
                   "sim.self_s": 2.1} if correct else {},
    }


def _set(tmp_path, smoke=False, correct=True):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({
        "seed": None, "smoke": smoke,
        "workloads": {"nfs": _workload("aa"), "rubis": _workload("bb", correct)},
    }))
    return path


@pytest.fixture
def out(tmp_path, monkeypatch):
    """The trajectory the tool appends to, moved out of the repo."""
    path = tmp_path / "BENCH_scenarios.json"
    monkeypatch.setattr(record_scenarios, "BENCH_PATH", path)
    return path


def _old_trajectory(out):
    out.write_text(json.dumps({
        "schema": record_scenarios.BENCH_SCHEMA,
        "latest": {"commit": "0ld", "date": "2026-01-01"},
        "trajectory": [{"commit": "0ld", "date": "2026-01-01"}],
    }))


def test_appends_an_entry_and_keeps_older_ones(tmp_path, out):
    _old_trajectory(out)
    assert record_scenarios.main([str(_set(tmp_path))]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == record_scenarios.BENCH_SCHEMA
    assert len(doc["trajectory"]) == 2
    assert doc["trajectory"][0]["commit"] == "0ld"
    latest = doc["latest"]
    assert latest == doc["trajectory"][-1]
    assert latest["seed"] is None
    assert latest["command"] == "PYTHONPATH=src python -m bench --json set.json"
    nfs = latest["workloads"]["nfs"]
    assert nfs["digest"] == "aa"
    assert (nfs["attempted"], nfs["failed"]) == (6, 0)
    assert nfs["metrics"]["sim_s_per_wall_s"] == {
        "median": 1.5, "q1": 1.4, "q3": 1.6, "n": 5, "unit": "sim_s/s"}
    assert nfs["counts"] == {"sim.events": 603283, "sim.process_resumes": 121747,
                             "ossim.cpu_submits": 90000, "netsim.packets": 40000}


def test_refuses_a_smoke_set_and_writes_nothing(tmp_path, out):
    assert record_scenarios.main([str(_set(tmp_path, smoke=True))]) == 1
    assert not out.exists()


def test_refuses_a_set_with_an_incorrect_workload(tmp_path, out, capsys):
    _old_trajectory(out)
    before = out.read_text()
    assert record_scenarios.main([str(_set(tmp_path, correct=False))]) == 1
    assert out.read_text() == before
    assert "rubis" in capsys.readouterr().err
