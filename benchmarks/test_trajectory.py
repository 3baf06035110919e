"""``record_trajectory`` appends to BENCH trajectories, never clobbers them.

The BENCH_*.json files are the repo's perf history: every recorded run
must extend the ``trajectory`` list.  These tests run in smoke mode too
(they use a temp path, not the real BENCH files) so CI catches the
writer regressing to overwrite-the-snapshot behavior.
"""

import json

from repro.experiments.common import record_trajectory


def test_record_trajectory_appends_not_clobbers(tmp_path):
    path = tmp_path / "BENCH_x.json"
    record_trajectory(path, "sysprof-repro/bench-x/v2", {"rate": 100})
    record_trajectory(path, "sysprof-repro/bench-x/v2", {"rate": 200})
    doc = json.loads(path.read_text())
    assert doc["schema"] == "sysprof-repro/bench-x/v2"
    assert [entry["rate"] for entry in doc["trajectory"]] == [100, 200]
    assert doc["latest"]["rate"] == 200
    for entry in doc["trajectory"]:
        assert entry["commit"]
        assert len(entry["date"]) == 10  # YYYY-MM-DD


def test_record_trajectory_survives_corrupt_file(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text("{not json")
    record_trajectory(path, "sysprof-repro/bench-x/v2", {"rate": 7})
    doc = json.loads(path.read_text())
    assert [entry["rate"] for entry in doc["trajectory"]] == [7]
