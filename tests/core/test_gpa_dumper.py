"""GPA periodic disk dumps and experiment driver guards."""

import json

import pytest

from repro.cluster import Cluster
from repro.core import SysProf, SysProfConfig
from tests.core.helpers import echo_server, request_client


def test_periodic_dumper_writes_files(tmp_path):
    dump_path = str(tmp_path / "gpa-periodic.jsonl")
    cluster = Cluster(seed=81)
    cluster.add_node("client")
    cluster.add_node("server")
    cluster.add_node("mgmt")
    sysprof = SysProf(
        cluster,
        SysProfConfig(eviction_interval=0.05, dump_path=dump_path,
                      dump_interval=0.5),
    )
    sysprof.install(monitored=["server"], gpa_node="mgmt")
    sysprof.start()
    cluster.node("server").spawn("srv", echo_server)
    cluster.node("client").spawn("cli", request_client, "server", 8080, 10)
    cluster.run(until=2.0)
    # "The GPA periodically dumps its information onto local disk."
    assert sysprof.gpa.dumps_written >= 2
    lines = [json.loads(line) for line in open(dump_path)]
    assert any(line["type"] == "gpa-dump" for line in lines)
    assert any(line["type"] == "interaction" for line in lines)


def test_nfs_experiment_raises_when_simulation_too_short():
    from repro.experiments.nfs_storage import NfsExperimentConfig, run_nfs_experiment

    config = NfsExperimentConfig(
        thread_counts=(2,), ops_per_thread=30, sim_limit=0.05
    )
    with pytest.raises(RuntimeError, match="did not finish"):
        run_nfs_experiment(2, config)


def test_toolkit_flush_advances_clock():
    cluster = Cluster(seed=82)
    cluster.add_node("server")
    sysprof = SysProf(cluster).install(monitored=["server"])
    sysprof.start()
    before = cluster.sim.now
    sysprof.flush(settle=0.25)
    assert cluster.sim.now == pytest.approx(before + 0.25)
