"""Figure 6: RUBiS throughput under plain (blind) DWCS.

Paper anchors: two request classes at 150 req/s each, 60 httperf
sessions; steady-state throughput 145 (bidding) and 134 (comment)
responses/sec; halfway through, background load on one servlet degrades
throughput.
"""

from repro.experiments.rubis_qos import RubisExperimentConfig, run_rubis_experiment
from benchmarks.conftest import report

CONFIG = RubisExperimentConfig(duration=20.0, load_at=10.0)


def test_fig6_dwcs_throughput(once):
    result = once(run_rubis_experiment, "dwcs", CONFIG)
    rows = [
        ("bidding", 145, result.pre_throughput["bidding"],
         result.post_throughput["bidding"], result.dropped["bidding"]),
        ("comment", 134, result.pre_throughput["comment"],
         result.post_throughput["comment"], result.dropped["comment"]),
    ]
    report(
        "Figure 6: DWCS throughput (resp/s) before/after mid-run load",
        ("class", "paper steady", "pre-load", "post-load", "dropped"),
        rows,
        notes=(
            "blind round-robin keeps sending to the loaded servlet; the "
            "tight-deadline bidding class pays for it",
        ),
    )
    # Steady state near offered load (paper: 145/134 of 150 offered).
    assert result.pre_throughput["bidding"] > 130
    assert result.pre_throughput["comment"] > 125
    # Mid-run load visibly degrades aggregate throughput.
    assert result.post_total < 0.9 * result.pre_total
    # The tight class suffers the deadline violations.
    assert result.dropped["bidding"] > 0
    # The time series actually shows the drop at the midpoint.
    bidding = dict(result.series["bidding"])
    early = sum(v for t, v in bidding.items() if 2 <= t < 10) / 8
    late = sum(v for t, v in bidding.items() if 12 <= t < 20) / 8
    assert late < 0.85 * early
