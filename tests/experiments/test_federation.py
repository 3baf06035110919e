"""Federation scaling and partition points against the stored oracle."""

from dataclasses import replace

import pytest

from repro.experiments.federation import (
    run_federation_point,
    run_partition_point,
    smoke_config,
)


@pytest.mark.parametrize("mode", ["flat", "federated"])
def test_smoke_point_matches_golden(mode, golden):
    point = run_federation_point(
        replace(smoke_config(), federated=mode == "federated")
    )
    observed = {
        "root_ingress_bytes": point.root_ingress_bytes,
        "root_records": point.root_records,
    }
    assert observed == golden["federation_smoke"][mode], (
        "{} smoke point changed; observed {}".format(mode, observed)
    )
    assert point.nodes == 16
    assert point.zones == (2 if mode == "federated" else 0)


@pytest.mark.parametrize("scenario", ["gpa", "uplink"])
def test_partition_point_matches_golden(scenario, golden):
    point = run_partition_point(scenario=scenario)
    observed = {
        "detect_latency_s": point.detect_latency_s,
        "rows_lost": point.rows_lost,
        "reparents": point.reparents,
    }
    assert observed == golden["partition_smoke"][scenario], (
        "{} partition point changed; observed {}".format(scenario, observed)
    )
    assert point.staleness_bounded
    assert point.target_zone == "r0" and point.standby_zone == "r1"
