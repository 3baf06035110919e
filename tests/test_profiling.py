"""The self-profiling harness (``python -m repro profile``)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.observability.tracer import validate_chrome_trace
from repro.service import SCENARIOS as REGISTRY
from repro.profiling import (
    SCENARIOS,
    _package_of,
    format_report,
    run_profile,
)


def test_microbench_report_shape():
    report = run_profile("microbench", smoke=True, top=10)
    assert report.scenario == "microbench"
    assert report.events > 20_000  # churn events + standing timers
    assert report.wall_seconds > 0.0
    assert report.events_per_sec > 0.0
    assert len(report.hotspots) <= 10
    packages = dict((name, secs) for name, secs, _calls in report.packages)
    # The engine scenario must spend the bulk of its time in repro.sim.
    assert packages.get("sim", 0.0) == max(packages.values())
    for _name, calls, self_s, cum_s in report.hotspots:
        assert calls > 0
        assert cum_s >= self_s >= 0.0


def test_chrome_trace_output_validates():
    report = run_profile("microbench", smoke=True, top=5)
    doc = report.chrome_trace()
    count = validate_chrome_trace(doc)  # raises on any violation
    # 5 hotspot slices + one slice per package bucket.
    assert count == 5 + len(report.packages)
    assert doc["otherData"]["scenario"] == "microbench"
    assert doc["otherData"]["events"] == report.events


def test_report_round_trips_through_json():
    report = run_profile("sketch", smoke=True, top=5)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["scenario"] == "sketch"
    assert back["events"] == report.events
    assert len(back["hotspots"]) <= 5
    assert {entry["package"] for entry in back["packages"]} == {
        name for name, _secs, _calls in report.packages
    }


def test_format_report_prints_tables():
    report = run_profile("microbench", smoke=True, top=3)
    text = format_report(report)
    assert "self time by package" in text
    assert "top 3 hotspots" in text
    assert "events/s" in text


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_profile("warp-drive")


def test_package_of_buckets():
    assert _package_of("/x/src/repro/sim/engine.py") == "sim"
    assert _package_of("/x/src/repro/observability/sketches.py") == (
        "observability"
    )
    assert _package_of("/x/src/repro/profiling.py") == "repro (other)"
    assert _package_of("~") == "stdlib/other"
    assert _package_of("/usr/lib/python3/heapq.py") == "stdlib/other"


def test_cli_profile_smoke(tmp_path, capsys):
    trace_path = tmp_path / "prof_trace.json"
    json_path = tmp_path / "prof.json"
    assert main([
        "profile", "microbench", "--smoke", "--top", "5",
        "--trace", str(trace_path), "--json", str(json_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "self time by package" in out
    assert "events/s" in out
    doc = json.loads(trace_path.read_text())
    validate_chrome_trace(doc)
    back = json.loads(json_path.read_text())
    assert back["scenario"] == "microbench"


def test_cli_profile_parser():
    args = build_parser().parse_args(["profile", "nfs"])
    assert args.scenario == "nfs"
    assert args.smoke is False and args.top == 15
    assert args.trace is None and args.json is None
    with pytest.raises(SystemExit):
        build_parser().parse_args(["profile", "bogus"])
    assert set(SCENARIOS) == {"microbench", "sketch"} | set(REGISTRY)


def test_registered_scenario_profiles():
    report = run_profile("synthetic", smoke=True, top=5)
    assert report.description.startswith("Flat install")
    assert report.events > 0
