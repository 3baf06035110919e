"""Shared fixtures."""

import json
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.sim import Simulator

GOLDEN_DIGESTS = Path(__file__).parent / "fixtures" / "golden_digests.json"


@pytest.fixture(scope="session")
def golden():
    """The stored determinism oracle (``tests/fixtures/golden_digests.json``)."""
    return json.loads(GOLDEN_DIGESTS.read_text())


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster():
    """A three-node cluster (a, b with disk, mgmt) on a 1 Gbps LAN."""
    cluster = Cluster(seed=7)
    cluster.add_node("a")
    cluster.add_node("b", with_disk=True)
    cluster.add_node("mgmt")
    return cluster


def run_task(cluster, node_name, fn, *args, limit=60.0):
    """Spawn a task and run the simulation until it finishes."""
    task = cluster.node(node_name).spawn("test-task", fn, *args)
    cluster.sim.run_until_triggered(task.proc, limit=cluster.sim.now + limit)
    return task.exit_value
