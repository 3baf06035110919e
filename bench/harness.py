"""Parent side of the benchmark: runs reps in child processes, one at a
time, checks them against each other, and summarises them.

``BENCHMARK.json`` at the repository root names the workloads, the
end-to-end metrics every workload reports (with their regression
bounds) and the per-layer metrics.  :data:`SPECIFIC` adds the
end-to-end metrics that its layout cannot hold: those that exist on one
workload only, and ``error_rate``, which is 0 on a correct run.
"""

import json
import os
import statistics
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock limit for one child rep, traced or not.
REP_TIMEOUT = 150.0

Metric = namedtuple("Metric", "unit better bound workloads")

#: End-to-end metrics outside BENCHMARK.json.  The ``*_raw`` times are
#: not rescaled to the nominal host; they swing with the host's load.
#: A bound of None: the metric is in :data:`DETERMINISTIC`.
SPECIFIC = {
    "sim_s_per_wall_s_raw": Metric("sim_s/s", "higher", 0.25, None),
    "setup_s_raw": Metric("s", "lower", 0.25, None),
    "error_rate": Metric("fraction", "lower", None, None),
    "detect_anomaly_s": Metric("sim_s", "lower", None, ("incident",)),
    "detect_slo_s": Metric("sim_s", "lower", None, ("incident",)),
    "query_p50_ms": Metric("ms", "lower", 0.15, ("incident",)),
    "query_p95_ms": Metric("ms", "lower", 0.15, ("incident",)),
}


#: Rep outputs that are a pure function of workload and seed: any
#: difference between two runs with one seed is a change to the model.
DETERMINISTIC = (
    "digest", "monitoring_cpu_share", "error_rate", "detect_anomaly_s",
    "detect_slo_s", "counts",
)


class HarnessError(Exception):
    """A child rep produced no report (``repro`` missing, interpreter
    died, rep hung)."""


def load_contract(root=ROOT):
    with open(Path(root) / "BENCHMARK.json") as fh:
        return json.load(fh)


def end_to_end_metrics(contract):
    """name -> :class:`Metric`; ``workloads`` None means every workload."""
    metrics = {
        entry["name"]: Metric(entry["unit"], entry["better"], entry["bound"], None)
        for entry in contract["end_to_end"]
    }
    metrics.update(SPECIFIC)
    return metrics


def applies(metric, workload):
    return metric.workloads is None or workload in metric.workloads


def check_sources(root=ROOT):
    """Raise :class:`HarnessError` unless the program's sources are here."""
    if not (Path(root) / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError("no src/repro under {}: nothing to benchmark".format(root))


def warm_up(root=ROOT):
    """Byte-compile the sources once, so no rep pays for it in setup_s."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(Path(root) / "src")],
        cwd=root, stdout=subprocess.DEVNULL, check=False, timeout=REP_TIMEOUT,
    )


def run_rep(workload, seed=None, smoke=False, trace=False, root=ROOT):
    """Run one rep in a fresh child process; returns its report."""
    command = [sys.executable, "-m", "bench.rep", "--workload", workload]
    if seed is not None:
        command += ["--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if trace:
        command.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(root) / "src"), str(root)])
    try:
        proc = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError("{} rep ran past {}s".format(workload, REP_TIMEOUT)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError("{} rep exited {}:\n{}".format(
            workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summary(values):
    """``{"median", "q1", "q3", "n", "values"}`` of a list of numbers."""
    values = list(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def gate(reps, traced=None):
    """Correctness problems across one workload's reps, as strings.

    Each rep must pass its own checks; every rep, the traced one
    included, must produce the same digest and the same deterministic
    metrics and counts, since host-side observation must not change the
    simulation.
    """
    labelled = [("rep {}".format(index + 1), rep) for index, rep in enumerate(reps)]
    if traced is not None:
        labelled.append(("traced rep", traced))
    problems = [
        "{}: {}".format(label, problem)
        for label, rep in labelled for problem in rep["problems"]
    ]
    if problems:
        return problems
    first = labelled[0][1]
    for label, rep in labelled[1:]:
        for key in DETERMINISTIC:
            if rep.get(key) != first.get(key):
                problems.append("{}: {} {!r} differs from rep 1's {!r}".format(
                    label, key, rep.get(key), first.get(key)))
    return problems


def layer_values(traced, reps):
    """Every per-layer metric: self time and share per layer from the
    traced rep, its counts, and rates over the untraced reps' medians."""
    nominal_run_s = statistics.median(rep["nominal_run_s"] for rep in reps)
    layers = traced["layers"]
    total = sum(layers.values())
    values = dict(traced["counts"])
    values.update(traced["calls"])
    values["sim.events_per_s"] = traced["counts"]["sim.events"] / nominal_run_s
    values["trace.overhead"] = traced["run_s"] / statistics.median(
        rep["run_s"] for rep in reps)
    for layer, self_s in layers.items():
        values[layer + ".self_s"] = self_s
        values[layer + ".share"] = self_s / total
    return values
