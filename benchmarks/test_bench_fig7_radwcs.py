"""Figure 7: RUBiS throughput under resource-aware DWCS.

Paper anchors: "The degradation in throughput is far less as compared to
our earlier experiment ... the higher priority bidding request has very
insignificant drop in performance"; headline: >14% throughput gain for
<2% monitoring cost.
"""

from repro.experiments.rubis_qos import (
    RubisExperimentConfig,
    monitoring_cost_experiment,
    run_comparison,
)
from benchmarks.conftest import report

CONFIG = RubisExperimentConfig(duration=20.0, load_at=10.0)


def test_fig7_radwcs_throughput(once):
    dwcs, radwcs, gain = once(run_comparison, CONFIG)
    rows = []
    for name in ("bidding", "comment"):
        rows.append((
            name,
            dwcs.pre_throughput[name], dwcs.post_throughput[name],
            radwcs.pre_throughput[name], radwcs.post_throughput[name],
        ))
    report(
        "Figure 7: RA-DWCS vs DWCS throughput (resp/s) around the load event",
        ("class", "dwcs pre", "dwcs post", "radwcs pre", "radwcs post"),
        rows,
        notes=(
            "post-load total gain: {:.1f}% (paper: '> 14%')".format(gain),
            "RA-DWCS whole-run bidding split (shifts to the light servlet "
            "after the load event): {}".format(radwcs.servlet_split["bidding"]),
        ),
    )
    # "very insignificant drop" for bidding under RA-DWCS.
    assert radwcs.post_throughput["bidding"] > 0.92 * radwcs.pre_throughput["bidding"]
    # degradation far less than plain DWCS.
    dwcs_loss = dwcs.pre_total - dwcs.post_total
    radwcs_loss = radwcs.pre_total - radwcs.post_total
    assert radwcs_loss < 0.5 * dwcs_loss
    # headline gain.
    assert gain > 14.0


def test_headline_monitoring_cost(once):
    """Paper: 'application performance ... decreased by less than 2%
    because of SysProf'."""
    config = RubisExperimentConfig(duration=12.0, load_at=6.0)
    baseline, monitored, overhead_pct = once(
        monitoring_cost_experiment, config
    )
    report(
        "Monitoring cost on the application (paper: '< 2%')",
        ("metric", "paper", "measured"),
        [
            ("throughput, monitor off (resp/s)", "-", baseline),
            ("throughput, monitor on (resp/s)", "-", monitored),
            ("decrease %", "< 2", overhead_pct),
        ],
    )
    assert overhead_pct < 2.0
