"""§3.1 microbenchmarks: linpack, iperf, and the overhead range.

Paper anchors:
* linpack MFLOPS unchanged with SysProf on;
* iperf 1 Gbps: ~930 -> ~810 Mbps (~13% overhead);
* iperf 100 Mbps: ~3% overhead (we measure ~0-1%: our model has no
  interrupt-pressure term when the link, not the CPU, is the limit);
* overhead configurable from <1% to >10%.
"""

from repro.experiments.microbench import (
    iperf_experiment,
    linpack_experiment,
    overhead_range_experiment,
)
from benchmarks.conftest import report


def test_linpack_overhead(once):
    result = once(linpack_experiment, 1.0)
    report(
        "Linpack with SysProf (paper §3.1: 'no change in the mflops')",
        ("metric", "paper", "measured"),
        [
            ("baseline MFLOPS", "(2.8 GHz class)", result.baseline),
            ("monitored MFLOPS", "unchanged", result.monitored),
            ("overhead %", "~0", result.overhead_pct),
        ],
    )
    assert result.overhead_pct < 1.0


def test_iperf_1gbps(once):
    result = once(iperf_experiment, 1_000_000_000, 0.3)
    report(
        "iperf on 1 Gbps Ethernet (paper §3.1: ~930 -> ~810 Mbps, ~13%)",
        ("metric", "paper", "measured"),
        [
            ("baseline Mbps", 930, result.baseline),
            ("monitored Mbps", 810, result.monitored),
            ("overhead %", 13, result.overhead_pct),
        ],
    )
    assert 880 <= result.baseline <= 980
    assert 8.0 <= result.overhead_pct <= 18.0


def test_iperf_100mbps(once):
    result = once(iperf_experiment, 100_000_000, 0.3)
    report(
        "iperf on 100 Mbps LAN (paper §3.1: 'overhead came down to 3%')",
        ("metric", "paper", "measured"),
        [
            ("baseline Mbps", "~95", result.baseline),
            ("monitored Mbps", "~92", result.monitored),
            ("overhead %", 3, result.overhead_pct),
        ],
        notes=(
            "link-bound regime: measured overhead is ~0-1% (< the 1 Gbps "
            "case, preserving the paper's shape claim)",
        ),
    )
    assert result.baseline > 85
    assert result.overhead_pct < 3.5  # far below the CPU-bound 13%


def test_overhead_configuration_range(once):
    results = once(overhead_range_experiment, 0.25)
    rows = [
        (entry.label, entry.monitored, entry.overhead_pct) for entry in results
    ]
    report(
        "overhead vs configuration (paper §3.1: '<1% ... more than 10%')",
        ("configuration", "Mbps", "overhead %"),
        rows,
    )
    by_label = {entry.label: entry.overhead_pct for entry in results}
    assert by_label["attached, all events masked"] < 1.0
    assert by_label["default (per-interaction)"] > 10.0
    # The knobs produce a monotone-ish cost ladder.
    assert (
        by_label["attached, all events masked"]
        < by_label["class granularity"] + 2.0
        <= by_label["text encoding (no PBIO)"] + 4.0
    )
