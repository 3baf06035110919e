"""Every ``stats()`` source in the tree is accounted for in the registry.

The metrics registry's value is completeness: an operator reading
``/proc/sysprof/metrics`` should never discover later that some
component kept private counters.  This test enumerates every class (and
module) in ``repro`` that defines a ``stats`` callable and asserts each
one is either registered as a source, reachable through a registered
parent's ``stats()`` dict, or explicitly exempted here with a reason.
Adding a new ``stats()`` method without classifying it fails this test.
"""

import importlib
import inspect
import pkgutil

from repro.core import SysProfConfig
from repro.faults import FaultInjector
from repro.observability import DiagnosisEngine
from repro.ossim import tracepoints as tp
from repro.service import build_scenario
from tests.core.helpers import build_monitored_pair

# Registered directly via registry.register_source(...) in
# metrics.build_registry or in the component's own constructor.
REGISTERED = {
    "Kprof",                      # sysprof.kprof.<node>
    "DisseminationDaemon",        # sysprof.daemon.<node>
    "LocalPerformanceAnalyzer",   # sysprof.lpa.<node>.<name>
    "InteractionLPA",
    "SyscallLPA",
    "SketchLPA",
    "CustomAnalyzer",             # sysprof.lpa.<node>.<name> while on daemon.lpas
    "AnalyzerTier",               # shared keys of the two tiers below
    "GlobalPerformanceAnalyzer",  # sysprof.gpa.<node>
    "ZoneGpa",                    # sysprof.zone.<zone>
    "RackTopology",               # sysprof.topology
    "Fabric",                     # sysprof.netsim
    "DiagnosisEngine",            # sysprof.diagnosis (self-registers)
    "FaultInjector",              # sysprof.faults (self-registers)
    "repro.experiments.runner",   # sysprof.runner (module-level stats)
    "Simulator",                  # sysprof.sim (engine counters)
    "TimeSeriesRecorder",         # sysprof.recorder (service supervisor)
    "AnomalyMonitor",             # sysprof.anomaly (service supervisor)
    "Supervisor",                 # sysprof.service (self-registers)
}

# Surfaced through a registered parent's stats() dict, not as their own
# prefix — their numbers are already in the exposition text.
INDIRECT = {
    "DoubleBuffer",    # lpa.stats() nests buffer counters
    "FrameDecoder",    # one per connection; the tier counts frames_received
    "SketchStore",     # gpa.stats() exposes sketch_rows / sketch_series
    "ChannelPublisher",  # daemon.stats() / zone_gpa.stats() flatten its counters
    "ParentLink",      # publisher.stats() nests it under "parent_link"
}

# Not monitoring-plane components: application/workload objects whose
# stats() are experiment results, plus the trace exporter whose output
# is a Chrome trace document rather than counters.
EXEMPT = {
    "ForwardingProxy", "NfsServer", "VirtualStorageService",
    "DbServer", "ServletServer", "RubisSite",
    "RequestDispatcher", "DwcsScheduler", "DwcsStream",
    "SpanTracer",
}


def _stats_components():
    """All (qualified name, kind) pairs in repro defining a stats callable."""
    import repro

    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == info.name and "stats" in obj.__dict__:
                found.add(name)
        stats = module.__dict__.get("stats")
        if inspect.isfunction(stats) and stats.__module__ == info.name:
            found.add(info.name)
    return found


def test_every_stats_source_is_classified():
    components = _stats_components()
    accounted = REGISTERED | INDIRECT | EXEMPT
    unclassified = components - accounted
    assert not unclassified, (
        "components with stats() but no registry classification: {} — "
        "register them in build_registry (or their constructor) and add "
        "them to REGISTERED, or justify them in INDIRECT/EXEMPT".format(
            sorted(unclassified)
        )
    )
    # Stale entries rot the contract in the other direction.
    vanished = accounted - components
    assert not vanished, "classified but no longer defined: {}".format(
        sorted(vanished)
    )


def test_registered_components_have_live_prefixes():
    """A maximal installation really does register one prefix per class."""
    config = SysProfConfig(
        eviction_interval=0.05, syscall_stats=True, latency_sketches=True
    )
    cluster, sysprof = build_monitored_pair(config=config)
    DiagnosisEngine(sysprof, rules=["p99(query) < 999999s"])
    FaultInjector(cluster, sysprof=sysprof)
    prefixes = sysprof.metrics.source_prefixes()
    for expected in (
        "sysprof.kprof.server",
        "sysprof.daemon.server",
        "sysprof.lpa.server",
        "sysprof.gpa.mgmt",
        "sysprof.netsim",
        "sysprof.sim",
        "sysprof.diagnosis",
        "sysprof.faults",
        "sysprof.query",
        "sysprof.runner",
    ):
        assert expected in prefixes, expected
    # The node's analyzer source reports one sysprof.lpa.<node>.<name>
    # family per analyzer on the daemon's list.
    names = sysprof.metrics.collect()
    for lpa in ("interaction-lpa", "nodestats-lpa", "syscall-lpa", "sketch-lpa"):
        prefix = "sysprof.lpa.server.{}.".format(lpa)
        assert any(name.startswith(prefix) for name in names), prefix


def test_analyzers_attached_after_install_report_metrics():
    """The registry reads each daemon's analyzer list when it collects,
    so analyzers attached after install() report too: a CPA until it is
    uninstalled, and every federation member's synthetic LPAs."""
    _cluster, sysprof = build_monitored_pair()
    sysprof.controller.install_cpa(
        "server", "void handle(event e) { }", [tp.SYSCALL_ENTRY], name="late"
    )
    assert "sysprof.lpa.server.late.handled" in sysprof.metrics.collect()
    sysprof.controller.uninstall_cpa("server", "late")
    assert not any(
        name.startswith("sysprof.lpa.server.late.")
        for name in sysprof.metrics.collect()
    )
    scenario = build_scenario("federation")
    try:
        names = scenario.sysprof.metrics.collect()
    finally:
        scenario.close()
    for node in scenario.sysprof.monitors:
        for lpa in ("synthetic-sketch", "synthetic-class"):
            assert "sysprof.lpa.{}.{}.buffer.appended".format(node, lpa) in names


def test_federated_install_registers_zone_and_topology_prefixes():
    """Zone GPAs and the rack topology surface in /proc/sysprof/metrics."""
    from tests.core.test_federation import build_federated

    cluster, sysprof = build_federated()
    cluster.run(until=2.0)
    prefixes = sysprof.metrics.source_prefixes()
    for expected in (
        "sysprof.zone.r0",
        "sysprof.zone.r1",
        "sysprof.topology",
        "sysprof.gpa.mgmt",
    ):
        assert expected in prefixes, expected
    text = sysprof.metrics.render()
    # Per-tier ingress bytes and merge counters are in the exposition.
    assert "sysprof.zone.r0.ingress_bytes" in text
    assert "sysprof.zone.r0.sketch_merges" in text
    assert "sysprof.gpa.mgmt.ingress_bytes" in text
    assert "sysprof.topology.racks" in text
