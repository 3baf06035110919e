#!/usr/bin/env python3
"""Append one scenario-benchmark full set to ``BENCH_scenarios.json``.

``python -m bench --json SET.json`` measures every workload but keeps
no history; this tool turns one such set into an entry of the
``BENCH_scenarios.json`` trajectory, through the one BENCH writer
(``repro.experiments.common.record_trajectory``)::

    PYTHONPATH=src python -m bench --json set.json
    python tools/record_scenarios.py set.json

An entry holds the set's seed and the command that made it and, per
workload, every end-to-end metric's median, q1, q3, n and unit, the
digest, ``attempted``/``failed``, and the traced counts named in
:data:`COUNTS`.  A smoke set, or a set with a workload that is not
``correct``, is refused: the tool exits 1 and writes nothing.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

BENCH_PATH = ROOT / "BENCH_scenarios.json"
BENCH_SCHEMA = "sysprof-repro/bench-scenarios/v1"

#: Traced-rep counts kept per workload.
COUNTS = ("sim.events", "sim.process_resumes", "ossim.cpu_submits", "netsim.packets")

#: The summary fields kept per end-to-end metric (``values`` is dropped).
SUMMARY = ("median", "q1", "q3", "n", "unit")


def refusal(full_set):
    """Why ``full_set`` cannot be recorded, or None."""
    if full_set.get("smoke"):
        return "a smoke set is a check, not a measurement"
    workloads = full_set.get("workloads")
    if not workloads:
        return "the set has no workloads"
    wrong = sorted(name for name, result in workloads.items() if not result.get("correct"))
    if wrong:
        return "not correct: " + ", ".join(wrong)
    return None


def entry_for(full_set, set_name):
    """The trajectory payload for one full set read from file ``set_name``."""
    seed = full_set.get("seed")
    command = "PYTHONPATH=src python -m bench{} --json {}".format(
        "" if seed is None else " --seed {}".format(seed), set_name)
    workloads = {}
    for workload, result in sorted(full_set["workloads"].items()):
        layers = result.get("layers", {})
        workloads[workload] = {
            "digest": result["digest"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {key: summary[key] for key in SUMMARY}
                for metric, summary in sorted(result["metrics"].items())
            },
            "counts": {key: layers[key] for key in COUNTS if key in layers},
        }
    return {"seed": seed, "command": command, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python tools/record_scenarios.py", description=__doc__.splitlines()[0])
    parser.add_argument("set", help="a `python -m bench --json` full set")
    args = parser.parse_args(argv)
    path = pathlib.Path(args.set)
    full_set = json.loads(path.read_text(encoding="utf-8"))
    problem = refusal(full_set)
    if problem is not None:
        print("record_scenarios: refused {}: {}".format(path, problem), file=sys.stderr)
        return 1
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.experiments.common import record_trajectory

    entry = record_trajectory(BENCH_PATH, BENCH_SCHEMA, entry_for(full_set, path.name))
    print("recorded {} workloads @ {} in {}".format(
        len(entry["workloads"]), entry["commit"], BENCH_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
