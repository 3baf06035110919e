"""Scenario benchmark: simulated seconds per wall second on four
workloads, with host time split by layer.

Full set (every workload, reps interleaved round-robin, then one traced
rep each; prints every metric with its unit and the per-layer table)::

    PYTHONPATH=src python -m bench [--seed S] [--smoke] [--json out.json]

One workload for about ``--seconds`` (the form BENCHMARK.json's
``command`` is run in); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``::

    python3 -m bench --workload nfs --seed 3 --seconds 20 --trace 0

Either form exits 1 when a correctness check fails and 2 when no rep
could run at all.
"""

import argparse
import json
import statistics
import sys
import time

from bench.harness import (
    HarnessError,
    applies,
    check_sources,
    end_to_end_metrics,
    gate,
    layer_values,
    load_contract,
    run_rep,
    summary,
    warm_up,
)

#: Untraced reps per workload in a full set (1 with ``--smoke``).
FULL_SET_REPS = 5

#: Fewest untraced reps a one-workload run takes, whatever ``--seconds``.
MIN_REPS = 3


def _totals(reps):
    return (sum(rep["attempted"] for rep in reps),
            sum(rep["failed"] for rep in reps))


def summarize(name, reps, traced, contract):
    """One workload's results: medians and quartiles of every end-to-end
    metric that applies, correctness, digests and per-layer values."""
    problems = gate(reps, traced)
    attempted, failed = _totals(reps + [traced])
    metrics = {}
    for metric_name, metric in end_to_end_metrics(contract).items():
        values = [rep[metric_name] for rep in reps if rep.get(metric_name) is not None]
        if applies(metric, name) and values:
            metrics[metric_name] = dict(summary(values), unit=metric.unit)
    return {
        "correct": not problems,
        "problems": problems,
        "horizon": reps[0]["horizon"],
        "seed": reps[0]["seed"],
        "attempted": attempted,
        "failed": failed,
        "host_speed": statistics.median(rep.get("host_speed", 0.0) for rep in reps),
        "digest": reps[0].get("digest"),
        "traced_digest": traced.get("digest"),
        "metrics": metrics,
        "layers": layer_values(traced, reps) if not problems else {},
    }


def _fmt(value):
    return "{:.6g}".format(value) if isinstance(value, float) else str(value)


def print_workload(name, result):
    print("== {}: horizon {} sim s, seed {}, {} reps ==".format(
        name, result["horizon"],
        "default" if result["seed"] is None else result["seed"],
        max(m["n"] for m in result["metrics"].values()) if result["metrics"] else 0))
    print("  host speed {} of nominal (median over reps)".format(
        _fmt(result["host_speed"])))
    same = result["traced_digest"] == result["digest"]
    print("  digest {} (traced rep: {})".format(
        result["digest"], "same" if same else result["traced_digest"]))
    for metric_name, m in result["metrics"].items():
        line = "  {:<22} {:>12} {:<9} q1 {}  q3 {}  n={}".format(
            metric_name, _fmt(m["median"]), m["unit"], _fmt(m["q1"]),
            _fmt(m["q3"]), m["n"])
        if metric_name == "error_rate":
            line += "  ({} failed / {} attempted)".format(
                result["failed"], result["attempted"])
        print(line)
    for problem in result["problems"]:
        print("  FAILED " + problem)


def print_layers(results, contract):
    """Rows: every per-layer metric; columns: workloads."""
    names = [name for name, result in results.items() if result["layers"]]
    if not names:
        return
    rows = [entry["name"] for entry in contract["per_layer"]]
    units = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    extra = sorted(
        {key for name in names for key in results[name]["layers"]} - set(rows)
    )
    print()
    print("per-layer (one traced rep each; self time covers import, build and run)")
    print("  {:<32}{}".format("metric", "".join("{:>14}".format(n) for n in names)))
    for row in rows + extra:
        cells = "".join(
            "{:>14}".format(_fmt(results[name]["layers"].get(row, "-")))
            for name in names
        )
        print("  {:<32}{}  {}".format(row, cells, units.get(row, "")))


def full_set(args, contract):
    names = [entry["name"] for entry in contract["workloads"]]
    reps = {name: [] for name in names}
    for _ in range(1 if args.smoke else FULL_SET_REPS):
        for name in names:  # interleaved, so a slow spell hits every workload
            reps[name].append(run_rep(name, args.seed, args.smoke))
    results = {}
    for name in names:
        traced = run_rep(name, args.seed, args.smoke, trace=True)
        results[name] = summarize(name, reps[name], traced, contract)
        print_workload(name, results[name])
    print_layers(results, contract)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "smoke": args.smoke, "workloads": results},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


def one_workload(args, contract):
    """Untraced reps for about ``--seconds`` (at least :data:`MIN_REPS`);
    with ``--trace 1``, one traced rep first and at least one untraced."""
    started = time.perf_counter()
    traced = run_rep(args.workload, args.seed, args.smoke, trace=True) if args.trace else None
    reps = []
    fewest = 1 if args.trace else MIN_REPS
    while True:
        rep_started = time.perf_counter()
        reps.append(run_rep(args.workload, args.seed, args.smoke))
        rep_s = time.perf_counter() - rep_started
        if len(reps) >= fewest and time.perf_counter() - started + rep_s > args.seconds:
            break
    problems = gate(reps, traced)
    for problem in problems:
        print("FAILED " + problem)
    print("digest {}".format(reps[0].get("digest")))
    attempted, failed = _totals(reps + ([traced] if traced else []))
    metrics = {}
    if not problems:
        if traced:
            values = layer_values(traced, reps)
            entries = contract["per_layer"]
        else:
            values = {
                entry["name"]: statistics.median(rep[entry["name"]] for rep in reps)
                for entry in contract["end_to_end"]
            }
            entries = contract["end_to_end"]
        metrics = {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in entries
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every scenario's default seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="one-workload run length (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one-workload run: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="short horizons, one rep per workload in a full set: "
                             "a check, not a measurement")
    parser.add_argument("--json", help="full set: also write results here")
    args = parser.parse_args(argv)
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload {!r} (have: {})".format(
            args.workload, ", ".join(names)))
    try:
        check_sources()
        warm_up()
        if args.workload is None:
            return full_set(args, contract)
        return one_workload(args, contract)
    except HarnessError as exc:
        print("bench: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
