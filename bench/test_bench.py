"""Tests of the benchmark itself: ``python -m pytest bench -q``.

The smoke set runs every workload once untraced and once traced at
short horizons (about half a minute on two cores); the other tests
reuse it or run one workload in the form BENCHMARK.json's command
is invoked in.
"""

import json
import shutil
import subprocess
import sys

import pytest

from bench.compare import verdict
from bench.harness import ROOT, Metric, applies, end_to_end_metrics, load_contract
from bench.layers import HOST, layer_self_times


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _bench("--smoke", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        return proc.stdout, json.load(fh)


def test_smoke_set_is_correct_on_every_workload(smoke):
    _stdout, results = smoke
    names = [entry["name"] for entry in load_contract()["workloads"]]
    assert sorted(results["workloads"]) == sorted(names)
    for name, result in results["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert result["attempted"] >= 1


def test_traced_digest_equals_untraced(smoke):
    """Profiling is host-side observation: the trace must not change."""
    _stdout, results = smoke
    for name, result in results["workloads"].items():
        assert result["digest"], name
        assert result["traced_digest"] == result["digest"], name


def test_printed_metric_names_match_benchmark_json(smoke):
    stdout, results = smoke
    contract = load_contract()
    metrics = end_to_end_metrics(contract)
    for name, result in results["workloads"].items():
        expected = {m for m, metric in metrics.items() if applies(metric, name)}
        assert set(result["metrics"]) == expected, name
        for entry in contract["per_layer"]:
            assert entry["name"] in result["layers"], (name, entry["name"])
    for metric_name, metric in metrics.items():
        assert " {} ".format(metric_name) in stdout
    for entry in contract["per_layer"]:
        assert " {} ".format(entry["name"]) in stdout


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_workload_form_prints_the_contract_line(trace, section):
    proc = _bench("--workload", "nfs", "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {entry["name"]: entry["unit"] for entry in load_contract()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "nfs", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_builtins_and_stdlib_are_charged_to_their_callers():
    sim_run = ("/x/src/repro/sim/engine.py", 10, "run")
    core_g = ("/x/src/repro/core/gpa.py", 20, "g")
    length = ("~", 0, "<built-in method builtins.len>")
    push = ("/usr/lib/python3/heapq.py", 1, "push")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    bench_main = ("/x/bench/rep.py", 5, "run_rep")
    ordered = ("~", 0, "<built-in method builtins.sorted>")
    enc_a = ("/usr/lib/python3/json/encoder.py", 1, "a")
    enc_b = ("/usr/lib/python3/json/encoder.py", 2, "b")
    stats = {
        sim_run: (1, 1, 1.0, 2.0, {}),
        core_g: (1, 1, 0.5, 0.9, {sim_run: (1, 1, 0.5, 0.9)}),
        # len: 0.4 s of it under sim, 0.2 s under core
        length: (10, 10, 0.6, 0.6, {sim_run: (6, 6, 0.4, 0.4), core_g: (4, 4, 0.2, 0.2)}),
        # a stdlib function, and a builtin only it calls: both go to sim
        push: (3, 3, 0.3, 0.4, {sim_run: (3, 3, 0.3, 0.4)}),
        append: (3, 3, 0.1, 0.1, {push: (3, 3, 0.1, 0.1)}),
        # nothing in repro called these: the benchmark's own time
        bench_main: (1, 1, 0.2, 3.0, {}),
        ordered: (1, 1, 0.05, 0.05, {bench_main: (1, 1, 0.05, 0.05)}),
        # a cycle between two layerless functions, entered from core
        enc_a: (2, 2, 0.1, 0.2, {core_g: (1, 1, 0.05, 0.1), enc_b: (1, 1, 0.05, 0.1)}),
        enc_b: (1, 1, 0.1, 0.15, {enc_a: (1, 1, 0.1, 0.15)}),
    }
    layers = layer_self_times(stats)
    assert set(layers) == {"sim", "core", HOST}
    assert layers["sim"] == pytest.approx(1.0 + 0.4 + 0.3 + 0.1)
    assert layers["core"] == pytest.approx(0.5 + 0.2 + 0.1 + 0.1)
    assert layers[HOST] == pytest.approx(0.2 + 0.05)
    assert sum(layers.values()) == pytest.approx(sum(row[2] for row in stats.values()))


def _summary(*values):
    values = sorted(values)
    return {"median": values[len(values) // 2], "q1": values[0], "q3": values[-1],
            "n": len(values), "values": list(values)}


@pytest.mark.parametrize("b, expected", [
    ((1.30, 1.31, 1.32, 1.33, 1.34), "better"),
    ((0.80, 0.81, 0.82, 0.83, 0.84), "worse"),
    ((0.99, 1.00, 1.01, 1.02, 1.03), "unchanged"),
])
def test_compare_verdicts(b, expected):
    rate = Metric("sim_s/s", "higher", 0.1, None)
    a = _summary(0.98, 0.99, 1.00, 1.01, 1.02)
    assert verdict(a, _summary(*b), rate) == expected


def test_compare_reports_wide_spread_as_unresolved():
    rate = Metric("sim_s/s", "higher", 0.1, None)
    a = _summary(0.7, 0.9, 1.0, 1.1, 1.3)
    assert verdict(a, _summary(0.7, 0.85, 0.97, 1.1, 1.3), rate) == "unresolved"


def test_compare_exact_metrics_admit_no_noise():
    share = Metric("fraction", "lower", 0.2, None)
    a = _summary(0.05, 0.05, 0.05)
    assert verdict(a, _summary(0.05, 0.05, 0.05), share, exact=True) == "unchanged"
    assert verdict(a, _summary(0.051, 0.051, 0.051), share, exact=True) == "worse"
