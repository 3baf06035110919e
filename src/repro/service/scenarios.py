"""The scenario registry: the one place a monitored cluster is built.

A *scenario* is a seeded cluster, an application and its traffic, a
SysProf installation, an un-armed (or pre-armed) :class:`FaultInjector`
and — only when it is given SLO rules — a :class:`DiagnosisEngine`
charging a CPU ledger the scenario owns.  Everything that runs the
paper's case studies builds through :func:`build_scenario`: the batch
experiments (``repro.experiments``) build one, run it to a horizon and
report; the :class:`~repro.service.supervisor.Supervisor` keeps one
alive slice by slice; ``repro profile`` and the scenario benchmark time
one.  A scenario added here is therefore measured and served everywhere.

Construction order is fixed — ledger, cluster, [NTP sync], application,
SysProf install and start, engine, injector, [armed schedule], traffic —
because same-time events dispatch in the order they were scheduled.

The defaults are the supervised, **continuous**-traffic forms: traffic is
driven by in-sim looping tasks, never by the host pump, so pumping
``run(until=...)`` in any sequence of slices replays the identical event
stream (``tests/service/test_determinism.py``).

Four scenarios ship (mirroring the paper's evaluation workloads):

``nfs``
    Iozone-style writers through the virtual storage proxy (§3.2's
    Figure 4/5 system).  The default, and what
    ``python -m repro serve --smoke`` boots.
``rubis``
    The RUBiS site with DWCS-dispatched httperf sessions (Figure 6/7).
``federation``
    A spine/leaf cluster with zone GPAs condensing synthetic telemetry
    upward — the scenario whose reparent events the service streams.
``synthetic``
    Flat install, synthetic sketch/class LPAs only: maximal telemetry
    rate per simulated second, no application layer.
"""

from dataclasses import replace

# Every builder's application and workload modules load with the
# registry, not inside a builder, so each scenario process loads the
# same layers whichever scenario it builds (and the scenario benchmark's
# traced rep charges each layer's import to that layer).
from repro.apps.nfs.client import NfsMount
from repro.apps.nfs.service import VirtualStorageService
from repro.apps.rubis.requests import BIDDING, COMMENT
from repro.apps.rubis.site import RubisSite
from repro.apps.scheduling import (
    DwcsScheduler,
    DwcsStream,
    LoadMonitor,
    RequestDispatcher,
    ResourceAwareRouter,
    RoundRobinRouter,
)
from repro.cluster import Cluster, NodeClock, build_spine_leaf, synchronize
from repro.core import SysProf, SysProfConfig, ZoneSpec
from repro.faults import FaultInjector
from repro.observability import DiagnosisEngine
from repro.observability import ledger as cpu_ledger
from repro.ossim.costs import CostModel
from repro.workloads.httperf import HttperfConfig, spawn_httperf
from repro.workloads.iozone import IozoneResults, spawn_iozone
from repro.workloads.synthetic import install_synthetic_load

#: Each scenario's default monitoring plane (copied per build).
NFS_MONITORING = SysProfConfig(eviction_interval=0.2, latency_sketches=True)
RUBIS_MONITORING = SysProfConfig(eviction_interval=0.1, latency_sketches=True)
# The synthetic LPAs supply the sketch rows of the last two.
FEDERATION_MONITORING = SysProfConfig(eviction_interval=0.2, forward_interval=0.5)
SYNTHETIC_MONITORING = SysProfConfig(eviction_interval=0.1)

#: DiagnosisEngine options of a scenario given rules (only the ``nfs``
#: builder, which the diagnosis experiment drives, takes others).
DIAGNOSIS = {"lookback": 1.0, "eval_interval": 0.1}


class Scenario:
    """One built, started workload (see module docstring).

    ``app`` holds the application's handles by name (the NFS service and
    iozone results, the RUBiS site, scheduler and dispatcher).  Use it as
    a context manager, or call :meth:`close`, to release the ledger.
    """

    def __init__(self, name, cluster, sysprof, engine, injector, ledger,
                 owns_ledger, description="", traffic="", app=None):
        self.name = name
        self.cluster = cluster
        self.sysprof = sysprof
        self.engine = engine
        self.injector = injector
        self.ledger = ledger
        self._owns_ledger = owns_ledger
        self.description = description
        self.traffic = traffic
        self.app = app or {}

    @property
    def sim(self):
        return self.cluster.sim

    def parent_links(self):
        """Every live reparent state machine (member daemons + zones)."""
        links = []
        for monitor in self.sysprof.monitors.values():
            link = monitor.daemon.publisher.parent_link
            if link is not None:
                links.append(link)
        federation = self.sysprof.federation
        if federation is not None:
            links.extend(zone_gpa.publisher.parent_link
                         for zone_gpa in federation.all_zones())
        return links

    def close(self):
        """Release process-global state (the CPU ledger) we installed."""
        if self._owns_ledger:
            cpu_ledger.uninstall()
            self._owns_ledger = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def describe(self):
        return {
            "name": self.name,
            "description": self.description,
            "traffic": self.traffic,
            "nodes": sorted(self.cluster.nodes),
            "monitored": sorted(self.sysprof.monitors),
            "rules": [rule.name for rule in self.engine.rules] if self.engine else [],
            "federated": self.sysprof.federation is not None,
        }


def _ledger(rules):
    """The CPU ledger a scenario with rules charges: reuse an active
    one, else install one the scenario owns.  No rules, no ledger."""
    if not rules:
        return None, False
    ledger = cpu_ledger.active()
    if ledger is not None:
        return ledger, False
    return cpu_ledger.install(), True


def _engine(sysprof, rules, diagnosis, ledger):
    """The scenario's DiagnosisEngine: only when it has rules."""
    if not rules:
        return None
    return DiagnosisEngine(sysprof, rules=list(rules), ledger=ledger, **diagnosis)


# ---------------------------------------------------------------------------
# nfs
# ---------------------------------------------------------------------------


#: A looping NFS writer's record size, writes per COMMIT, and the
#: think pause after each COMMIT.
WRITER_RECORD_BYTES = 16384
WRITER_BURST = 8
WRITER_THINK = 0.01


def _nfs_writer(ctx, server, path):
    """One iozone-style thread that never finishes: write bursts with a
    COMMIT and a think pause, looping over a bounded file region."""
    mount = NfsMount(ctx, server, pipeline=4)
    yield from mount.connect()
    yield from mount.lookup(path)
    op = 0
    while True:
        for _ in range(WRITER_BURST):
            offset = (op % 512) * WRITER_RECORD_BYTES
            yield from mount.write(path, offset, WRITER_RECORD_BYTES, stable=False)
            op += 1
        yield from mount.commit(path)
        yield from ctx.sleep(WRITER_THINK)


def build_nfs(seed=11, clients=1, backends=2, iozone=None, clock_skew=False,
              disk_transfer_bps=None, proxy_parse_cost=40e-6,
              proxy_reply_cost=25e-6, monitoring=NFS_MONITORING,
              rules=("p95(nfs-write) < 8ms",), diagnosis=DIAGNOSIS,
              schedule=None):
    """The virtual storage service: NFS clients, a proxy, disk backends.

    Traffic is two looping writers per client, or — given ``iozone`` (an
    :class:`~repro.workloads.iozone.IozoneConfig`) — finite iozone
    threads whose results land in ``app["results"]``.  ``clock_skew``
    offsets the proxy and backend clocks and NTP-syncs them to ``mgmt``
    for the GPA to correct.  ``schedule`` is a
    :class:`~repro.faults.FaultSchedule` armed before traffic starts.
    """
    ledger, owns = _ledger(rules)
    costs = None
    if disk_transfer_bps is not None:
        costs = CostModel().override(disk_transfer_bps=disk_transfer_bps)
    cluster = Cluster(seed=seed, costs=costs)
    client_names = ["client{}".format(i + 1) for i in range(clients)]
    for name in client_names:
        cluster.add_node(name)
    skews = (0.120, -0.045, 0.090) if clock_skew else (0.0, 0.0, 0.0)
    cluster.add_node("proxy", clock=NodeClock(offset=skews[0]))
    backend_names = ["backend{}".format(i + 1) for i in range(backends)]
    for index, name in enumerate(backend_names):
        cluster.add_node(
            name, with_disk=True, clock=NodeClock(offset=skews[1 + index % 2])
        )
    cluster.add_node("mgmt")
    clock_table = synchronize(cluster, "mgmt") if clock_skew else None
    service = VirtualStorageService(
        cluster, "proxy", backend_names, proxy_parse_cost=proxy_parse_cost,
        proxy_reply_cost=proxy_reply_cost,
    ).start()

    sysprof = SysProf(cluster, replace(monitoring), clock_table=clock_table)
    sysprof.install(monitored=["proxy"] + backend_names, gpa_node="mgmt")
    sysprof.start()
    engine = _engine(sysprof, rules, diagnosis, ledger)
    injector = FaultInjector(cluster, sysprof=sysprof)
    if schedule is not None:
        injector.arm(schedule)
    results = None
    if iozone is None:
        traffic = "{} clients x 2 looping iozone writers".format(clients)
        for client in client_names:
            node = cluster.node(client)
            for thread_id in range(2):
                node.spawn(
                    "writer-{}-t{}".format(client, thread_id), _nfs_writer,
                    "proxy", "/data/{}/file{}".format(client, thread_id),
                )
    else:
        traffic = "{} clients x {} iozone threads x {} ops".format(
            clients, iozone.threads, iozone.ops_per_thread
        )
        results = IozoneResults()
        for client in client_names:
            spawn_iozone(cluster.node(client), "proxy", iozone, results)
    return Scenario(
        "nfs", cluster, sysprof, engine, injector, ledger, owns,
        description="virtual storage proxy + {} backends".format(backends),
        traffic=traffic, app={"service": service, "results": results},
    )


# ---------------------------------------------------------------------------
# rubis
# ---------------------------------------------------------------------------


def build_rubis(seed=29, httperf=None, scheduler="dwcs", drop_factor=None,
                slots_per_servlet=12, monitoring=RUBIS_MONITORING,
                rules=("p95(bidding) < 100ms",)):
    """The RUBiS site under DWCS-dispatched httperf sessions.

    ``httperf`` (an :class:`~repro.workloads.httperf.HttperfConfig`)
    defaults to 30 sessions per class at 150 req/s for an hour of
    simulated time — effectively "forever" for a service session.
    ``scheduler="radwcs"`` routes on SysProf node statistics;
    ``monitoring=None`` builds the unmonitored baseline.
    """
    if scheduler not in ("dwcs", "radwcs"):
        raise ValueError("scheduler must be 'dwcs' or 'radwcs'")
    if scheduler == "radwcs" and monitoring is None:
        raise ValueError("radwcs requires monitoring (it consumes SysProf data)")
    httperf = httperf or HttperfConfig(duration=3600.0)
    servlets = ("servlet1", "servlet2")
    ledger, owns = _ledger(rules if monitoring is not None else ())
    cluster = Cluster(seed=seed)
    cluster.add_node("client")
    cluster.add_node("apache")
    for name in servlets:
        cluster.add_node(name)
    cluster.add_node("db", with_disk=True)
    cluster.add_node("mgmt")
    site = RubisSite(cluster, "apache", list(servlets), "db").start()

    sysprof = engine = None
    if monitoring is not None:
        sysprof = SysProf(cluster, replace(monitoring))
        sysprof.install(monitored=list(servlets), gpa_node="mgmt")
        sysprof.start()
        engine = _engine(sysprof, rules, DIAGNOSIS, ledger)
    injector = FaultInjector(cluster, sysprof=sysprof)

    dwcs = DwcsScheduler(drop_factor=drop_factor)
    for profile in (BIDDING, COMMENT):
        dwcs.add_stream(DwcsStream(
            profile.name, profile.period, profile.window_x, profile.window_y
        ))
    client = cluster.node("client")
    if scheduler == "radwcs":
        monitor = LoadMonitor(client, sysprof.hub).start()
        router = ResourceAwareRouter(list(servlets), monitor)
    else:
        router = RoundRobinRouter(list(servlets))
    dispatcher = RequestDispatcher(
        client, "apache", site.http_port, list(servlets), dwcs,
        router=router, slots_per_servlet=slots_per_servlet,
    ).start()
    spawn_httperf(client, dispatcher, httperf, cluster.streams)
    return Scenario(
        "rubis", cluster, sysprof, engine, injector, ledger, owns,
        description="RUBiS site: apache + {} servlets + db".format(len(servlets)),
        traffic="httperf, {} sessions/class at {:.0f} req/s for {:.0f}s".format(
            httperf.sessions_per_class, httperf.rate_per_class, httperf.duration
        ),
        app={"site": site, "dwcs": dwcs, "dispatcher": dispatcher},
    )


# ---------------------------------------------------------------------------
# federation
# ---------------------------------------------------------------------------


def build_federation(seed=19, zones=2, nodes_per_zone=3, federated=True,
                     standbys=False, monitoring=FEDERATION_MONITORING,
                     request_classes=("rpc",), samples_per_window=16,
                     rules=("staleness(r0n0) < 2s",)):
    """Spine/leaf racks of members shipping synthetic telemetry.

    Federated, each rack's zone GPA condenses its members to the root on
    ``mgmt`` (``standbys``: zone ``i`` covers for zone ``i+1``, a ring);
    flat, every member reports to the root and the rack GPA hosts idle.
    """
    ledger, owns = _ledger(rules)
    cluster = Cluster(seed=seed)
    topology = build_spine_leaf(
        cluster, racks=zones, nodes_per_rack=nodes_per_zone, mgmt_node="mgmt"
    )
    sysprof = SysProf(cluster, replace(monitoring))
    if federated:
        specs = [
            ZoneSpec(name=rack.name, gpa_node=rack.gpa_node,
                     members=list(rack.nodes))
            for rack in topology.racks
        ]
        if standbys and len(specs) > 1:
            for index, spec in enumerate(specs):
                spec.standby = specs[(index + 1) % len(specs)].name
        sysprof.install(zones=specs, gpa_node="mgmt")
    else:
        sysprof.install(monitored=topology.node_names, gpa_node="mgmt")
    install_synthetic_load(
        sysprof, request_classes=request_classes,
        samples_per_window=samples_per_window,
    )
    sysprof.start()
    engine = _engine(sysprof, rules, DIAGNOSIS, ledger)
    injector = FaultInjector(cluster, sysprof=sysprof)
    shape = "zone GPAs under a root" if federated else "flat to the root"
    return Scenario(
        "federation", cluster, sysprof, engine, injector, ledger, owns,
        description="{} zones x {} members, {}".format(zones, nodes_per_zone, shape),
        traffic="synthetic sketch/class LPAs on every member",
    )


# ---------------------------------------------------------------------------
# synthetic
# ---------------------------------------------------------------------------


def build_synthetic(seed=17, nodes=4, monitoring=SYNTHETIC_MONITORING,
                    rules=("p95(rpc) < 50ms",)):
    """Flat install with synthetic LPAs: pure monitoring-plane traffic."""
    ledger, owns = _ledger(rules)
    cluster = Cluster(seed=seed)
    names = ["n{}".format(i) for i in range(nodes)]
    for name in names:
        cluster.add_node(name)
    cluster.add_node("mgmt")
    sysprof = SysProf(cluster, replace(monitoring))
    sysprof.install(monitored=names, gpa_node="mgmt")
    install_synthetic_load(sysprof)
    sysprof.start()
    engine = _engine(sysprof, rules, DIAGNOSIS, ledger)
    injector = FaultInjector(cluster, sysprof=sysprof)
    return Scenario(
        "synthetic", cluster, sysprof, engine, injector, ledger, owns,
        description="{} monitored nodes, no application layer".format(nodes),
        traffic="synthetic sketch/class LPAs",
    )


#: Registry every batch experiment, ``repro profile``, the supervisor and
#: the scenario benchmark resolve scenario names through.
SCENARIOS = {
    "nfs": build_nfs,
    "rubis": build_rubis,
    "federation": build_federation,
    "synthetic": build_synthetic,
}


def build_scenario(name, **overrides):
    """Build a registered scenario by name."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            "unknown scenario {!r} (have: {})".format(
                name, ", ".join(sorted(SCENARIOS))
            )
        ) from None
    return builder(**overrides)
