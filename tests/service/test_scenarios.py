"""Scenario builders: every supervised workload boots and makes traffic."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core import SysProfConfig
from repro.experiments.common import trace_digest
from repro.observability import ledger as cpu_ledger
from repro.service import SCENARIOS, build_scenario


@pytest.fixture(autouse=True)
def _no_leaked_ledger():
    """Scenarios own the process-global CPU ledger; leaking one across
    tests would silently change every later kernel's accounting."""
    assert cpu_ledger.active() is None
    yield
    assert cpu_ledger.active() is None


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="synthetic"):
        build_scenario("nope")


def test_registry_lists_all_builders():
    assert sorted(SCENARIOS) == ["federation", "nfs", "rubis", "synthetic"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_boots_and_generates_telemetry(name, golden):
    scenario = build_scenario(name)
    try:
        assert scenario.name == name
        assert scenario.sysprof.monitors
        assert scenario.engine.rules
        assert scenario.injector.fired == 0
        scenario.cluster.run(until=1.0)
        gpa = scenario.sysprof.gpa
        observed = trace_digest(
            list(gpa.query_interactions()) + list(gpa.class_summaries)
        )
        assert observed == golden["scenario_digests"][name], (
            "{} scenario digest changed; observed {}".format(name, observed)
        )
        # The digest cannot see a dropped or added same-time hop; the
        # engine's event count can.
        events = scenario.cluster.sim.stats()["events_scheduled"]
        assert events == golden["scenario_events"][name], (
            "{} scenario event count changed; observed {}".format(name, events)
        )
        # Neither sees a ledger float move; the CPU ledger's rows do.
        rows = sorted(
            (node, category, seconds.hex())
            for node, categories in scenario.ledger.breakdown(
                include_idle=False
            ).items()
            for category, seconds in categories.items()
        )
        ledgers = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert ledgers == golden["scenario_ledgers"][name], (
            "{} scenario ledger changed; observed {}".format(name, ledgers)
        )
        scenario.cluster.run(until=1.5)
        # Continuous traffic: the plane is receiving records/frames.
        gpas = [scenario.sysprof.gpa]
        if scenario.sysprof.federation is not None:
            gpas.extend(scenario.sysprof.federation.all_zones())
        received = sum(gpa.stats()["records_received"] for gpa in gpas)
        assert received > 0
        described = scenario.describe()
        assert described["name"] == name
        assert described["monitored"]
        assert described["rules"]
    finally:
        scenario.close()


def test_scenario_traffic_is_continuous_not_front_loaded():
    """The live-mode contract: traffic keeps flowing at any horizon, so
    a supervisor can run for hours.  Record counts must keep growing
    between two later windows, not just during startup."""
    scenario = build_scenario("nfs")
    try:
        scenario.cluster.run(until=1.0)
        early = scenario.sysprof.gpa.stats()["records_received"]
        scenario.cluster.run(until=2.0)
        mid = scenario.sysprof.gpa.stats()["records_received"]
        scenario.cluster.run(until=3.0)
        late = scenario.sysprof.gpa.stats()["records_received"]
        assert early > 0
        assert mid > early
        assert late > mid
    finally:
        scenario.close()


def test_scenario_overrides_reach_the_builder():
    scenario = build_scenario(
        "synthetic", nodes=2, rules=("p95(rpc) < 1s",),
        monitoring=SysProfConfig(eviction_interval=0.3),
    )
    try:
        assert len(scenario.sysprof.monitors) == 2
        assert [rule.name for rule in scenario.engine.rules] == ["p95(rpc) < 1s"]
        monitor = next(iter(scenario.sysprof.monitors.values()))
        assert monitor.daemon.eviction_interval == 0.3
    finally:
        scenario.close()


def test_scenario_without_rules_has_no_engine_and_no_ledger():
    with build_scenario("synthetic", nodes=2, rules=()) as scenario:
        assert scenario.engine is None
        assert scenario.ledger is None
        assert cpu_ledger.active() is None


def test_scenario_reuses_an_already_installed_ledger():
    ours = cpu_ledger.install()
    try:
        scenario = build_scenario("synthetic", nodes=2)
        assert scenario.ledger is ours
        scenario.close()  # must NOT uninstall a ledger it does not own
        assert cpu_ledger.active() is ours
    finally:
        cpu_ledger.uninstall()


def test_federation_scenario_exposes_parent_links():
    scenario = build_scenario("federation")
    try:
        links = scenario.parent_links()
        assert links, "federated scenario must expose reparent machinery"
        for link in links:
            assert hasattr(link, "listeners")
    finally:
        scenario.close()


def test_service_import_leaves_experiments_unloaded():
    """The registry sits below the batch experiments that build from it:
    importing the service must not load them (an import cycle, and
    import time every scenario pays)."""
    code = (
        "import sys, repro.service; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_scenarios_run_without_loading_numpy():
    """numpy serves one batch kernel (``QuantileSketch.update_many``,
    which imports it on first use); the CLI, the service and every
    registered scenario run without it, keeping its import time and
    memory out of every simulation run."""
    code = (
        "import sys, repro.cli, repro.service\n"
        "for name in sorted(repro.service.SCENARIOS):\n"
        "    with repro.service.build_scenario(name) as scenario:\n"
        "        scenario.cluster.run(until=0.3)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


#: Run in a fresh interpreter: every scenario to 0.3 s, then one
#: supervised slice and the read-only queries a live service answers.
LEAN_PROCESS = """
import json, sys
import repro.service
for name in sorted(repro.service.SCENARIOS):
    with repro.service.build_scenario(name) as scenario:
        scenario.cluster.run(until=0.3)
supervisor = repro.service.Supervisor("nfs")
supervisor.pump()
for op in ("status", "metrics", "ledger", "alerts", "staleness", "dashboard"):
    assert supervisor.handle({"op": op, "params": {}})["ok"], op
supervisor.shutdown()
from repro.sim import rng
print(json.dumps({
    "experiments": sorted(m for m in sys.modules if m.startswith("repro.experiments.")),
    "unwanted": [m for m in ("multiprocessing", "_hashlib") if m in sys.modules],
    "layers": [m for m in ("repro.apps", "repro.workloads") if m in sys.modules],
    "sha256": rng.sha256.__module__,
}))
"""


def test_scenario_process_loads_only_what_it_runs():
    """A simulation process loads no experiment driver but the sweep
    runner (the metrics registry's ``sysprof.runner`` source), neither
    ``multiprocessing`` nor OpenSSL (``_hashlib``: the random streams
    hash with the interpreter's builtin sha256), and every layer its
    scenarios run, from the registry's own imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", LEAN_PROCESS], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert json.loads(out) == {
        "experiments": ["repro.experiments.runner"],
        "unwanted": [],
        "layers": ["repro.apps", "repro.workloads"],
        "sha256": "_sha2" if sys.version_info >= (3, 12) else "_sha256",
    }
