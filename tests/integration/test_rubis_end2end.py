"""Small-scale end-to-end checks of the §3.3 RUBiS/DWCS experiment shapes.

The full Figure 6/7 regeneration lives in benchmarks/; these runs use a
shorter horizon and lower rates to stay fast while still showing the
qualitative behaviour.
"""

import pytest

from repro.experiments.rubis_qos import RubisExperimentConfig, run_rubis_experiment

FAST = RubisExperimentConfig(
    duration=8.0, load_at=4.0, rate_per_class=120.0, sessions_per_class=10,
    slots_per_servlet=8, load_duty=0.75,
)


@pytest.fixture(scope="module")
def runs():
    return {
        "dwcs": run_rubis_experiment("dwcs", FAST),
        "radwcs": run_rubis_experiment("radwcs", FAST),
    }


def test_preload_throughput_near_offered(runs):
    for result in runs.values():
        for name, rate in result.pre_throughput.items():
            assert rate == pytest.approx(120.0, rel=0.2), (result.scheduler, name)


def test_dwcs_degrades_under_load(runs):
    dwcs = runs["dwcs"]
    assert dwcs.post_total < 0.9 * dwcs.pre_total


def test_radwcs_degrades_far_less(runs):
    """Figure 7 vs 6: 'The degradation in throughput is far less'."""
    dwcs, radwcs = runs["dwcs"], runs["radwcs"]
    dwcs_loss = dwcs.pre_total - dwcs.post_total
    radwcs_loss = radwcs.pre_total - radwcs.post_total
    assert radwcs_loss < 0.5 * dwcs_loss


def test_bidding_drop_insignificant_with_radwcs(runs):
    radwcs = runs["radwcs"]
    pre = radwcs.pre_throughput["bidding"]
    post = radwcs.post_throughput["bidding"]
    assert post > 0.9 * pre


def test_throughput_gain_exceeds_paper_threshold(runs):
    """Headline: '>14%' post-load throughput gain from SysProf-guided
    scheduling."""
    dwcs, radwcs = runs["dwcs"], runs["radwcs"]
    gain = 100.0 * (radwcs.post_total - dwcs.post_total) / dwcs.post_total
    assert gain > 14.0


def test_radwcs_routes_bidding_away_from_loaded_server(runs):
    split = runs["radwcs"].servlet_split["bidding"]
    assert split.get("servlet2", 0) > split.get("servlet1", 0)


def test_series_cover_both_classes(runs):
    for result in runs.values():
        assert set(result.series) == {"bidding", "comment"}
        for points in result.series.values():
            assert len(points) >= 6


def test_scheduler_argument_validated():
    with pytest.raises(ValueError):
        run_rubis_experiment("edf", FAST)


def test_radwcs_requires_monitoring():
    config = RubisExperimentConfig(
        duration=2.0, load_at=1.0, rate_per_class=10.0, sessions_per_class=2,
        monitor=False,
    )
    with pytest.raises(ValueError, match="requires monitoring"):
        run_rubis_experiment("radwcs", config)
