"""Compare two full-set results: the parent (A) and the change (B).

    python bench/compare.py A.json B.json

Both files come from ``python -m bench --json``.  For each workload and
each end-to-end metric it prints both medians and quartiles and a
verdict for B, with the bounds BENCHMARK.json fixes (and
``bench.harness.SPECIFIC`` for the metrics its layout cannot hold):

* ``better`` -- B wins at least nine tenths of the rep pairs (ties count
  for neither) and the medians differ by more than A's own quartile
  spread;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- neither, but the spread between reps is wider than
  the bound, and B's reps do not all read better than all of A's;
* ``unchanged`` -- otherwise.

A deterministic metric (``bench.harness.DETERMINISTIC``) is exact: any
difference is better or worse.  Exits 1 when any verdict is ``worse``.
"""

import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import DETERMINISTIC, end_to_end_metrics, load_contract  # noqa: E402


def _spread(summary):
    return (summary["q3"] - summary["q1"]) / abs(summary["median"]) if summary["median"] else 0.0


def verdict(a, b, metric, exact=False):
    """The verdict for summary ``b`` (change) against ``a`` (parent)."""
    sign = 1.0 if metric.better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"])  # > 0: B is better
    if exact:
        if gain == 0.0:
            return "unchanged"
        return "better" if gain > 0.0 else "worse"
    pairs = list(zip(a["values"], b["values"]))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0.0)
    if (pairs and gain > 0.0 and wins >= 0.9 * len(pairs)
            and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]):
        return "better"
    if -gain > metric.bound * abs(a["median"]):
        return "worse"
    all_better = min(sign * y for y in b["values"]) > max(sign * x for x in a["values"])
    if max(_spread(a), _spread(b)) > metric.bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(a, b, metrics):
    """``{workload: {metric: (A summary, B summary, verdict)}}``."""
    out = {}
    for name, result in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            continue
        rows = {}
        for metric_name, metric in metrics.items():
            sa = result["metrics"].get(metric_name)
            sb = other["metrics"].get(metric_name)
            if sa is not None and sb is not None:
                exact = metric_name in DETERMINISTIC
                rows[metric_name] = (sa, sb, verdict(sa, sb, metric, exact))
        out[name] = rows
    return out


def _cell(summary):
    return "{:.6g} [{:.6g}, {:.6g}] n={}".format(
        summary["median"], summary["q1"], summary["q3"], summary["n"])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python bench/compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    metrics = end_to_end_metrics(load_contract())
    table = compare(a, b, metrics)
    worse = False
    for name, rows in table.items():
        verdicts = ", ".join("{} {}".format(m, v) for m, (_a, _b, v) in rows.items())
        print("{:<11} {}".format(name, verdicts))
        for metric_name, (sa, sb, result) in rows.items():
            change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            print("    {:<21} A {:<40} B {:<40} {:+.1%}  {}".format(
                metric_name, _cell(sa), _cell(sb), change, result))
            worse = worse or result == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
