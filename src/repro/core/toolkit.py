"""The SysProf toolkit facade: install, start, query, stop.

Wires the five architectural components onto a simulated cluster:
Kprof (per node), LPAs (per node), the dissemination daemon (per node),
publish-subscribe channels, the GPA (one management node), and the
controller.  This is the public entry point downstream users should
reach for::

    cluster = Cluster(seed=1)
    ...  # build nodes and applications
    sysprof = SysProf(cluster)
    sysprof.install(monitored=["proxy", "backend"], gpa_node="mgmt")
    sysprof.start()
    ...  # run the workload
    summary = sysprof.gpa.node_summary("proxy")
"""

from dataclasses import dataclass

from repro.core.channels import (
    SYSPROF_PORT_BASE,
    SYSPROF_PORT_LIMIT,
    ChannelHub,
)
from repro.core.controller import Controller
from repro.core.daemon import DisseminationDaemon
from repro.core.federation import (
    ROOT_PREFIX,
    FederationTree,
    ParentLink,
    ZoneGpa,
    ZoneSpec,
    zone_channel_prefix,
)
from repro.core.gpa import GlobalPerformanceAnalyzer
from repro.core.interactions import pending_interactions
from repro.core.kprof import Kprof, exclude_port_range
from repro.core.lpa import InteractionLPA, NodeStatsLPA, SketchLPA, SyscallLPA
from repro.observability.metrics import build_registry


@dataclass
class SysProfConfig:
    """Tunables for an installation (the controller can change most at runtime).

    Only settings that some workload, experiment or deployment sets to
    more than one value live here.  The rest are the defaults of the
    component that owns them: ``InteractionLPA``'s window and idle
    timeout, ``SketchLPA``'s error bound and bucket cap, the GPA's port
    and history, the publisher's reconnect constants, and
    ``ParentLink``'s loss budget and probe jitter.  Traffic on the
    SysProf port range is never monitored, and every zone member and
    zone uplink gets a parent link whose lease is four publish intervals.
    """

    buffer_capacity: int = 256
    eviction_interval: float = 0.25
    granularity: str = "interaction"
    nodestats: bool = True
    syscall_stats: bool = False  # per-syscall latency aggregation LPA
    # Streaming quantile sketches per request class (latency + queue
    # depth), shipped as sysprof.sketch rows and merged at the GPA.
    latency_sketches: bool = False
    # Seconds without nodestats before gpa.stale_nodes() flags a node
    # (also the default threshold for staleness SLO rules).
    stale_threshold: float = 1.0
    arm_correlation: bool = False  # pair interleaved requests by ARM token
    dump_path: str = None
    dump_interval: float = None
    text_encoding: bool = False  # ablation: ship text instead of PBIO binary
    daemon_affinity: int = None  # pin sysprofd to a core (SMP nodes)
    # Federation: default upward forward interval for zone GPAs and the
    # per-zone eviction pacing offset.  With stagger > 0 each monitored
    # node's daemon start is delayed by (index * stagger) mod the
    # eviction interval, de-synchronizing the cluster-wide eviction herd
    # at scale; 0.0 keeps the historical everyone-at-once behavior.
    forward_interval: float = 0.5
    eviction_stagger: float = 0.0
    # Federation reparenting: member daemons and child zones that lose
    # their parent tier fail over to the zone's standby prefix / the
    # root and probe their way back with this seeded-jitter backoff.
    reparent_probe_base: float = 0.5
    reparent_probe_cap: float = 4.0


class NodeMonitor:
    """Everything SysProf runs on one monitored node.

    The node's analyzer list, CPAs and synthetic LPAs included, is
    ``daemon.lpas``; ``interaction_lpa`` (the controller's levers) and
    ``syscall_lpa`` (a live per-call table, or ``None``) are handles
    into it.
    """

    def __init__(self, node, kprof, interaction_lpa, daemon, syscall_lpa=None):
        self.node = node
        self.kernel = node.kernel
        self.kprof = kprof
        self.interaction_lpa = interaction_lpa
        self.syscall_lpa = syscall_lpa
        self.daemon = daemon
        self.cpas = {}


class SysProf:
    """An installation of the toolkit on a cluster."""

    def __init__(self, cluster, config=None, clock_table=None):
        self.cluster = cluster
        self.config = config or SysProfConfig()
        self.clock_table = clock_table
        self.hub = ChannelHub()
        self.monitors = {}
        self.gpa = None
        self.federation = None  # FederationTree when zones are installed
        self.controller = Controller(self)
        self.metrics = None  # MetricsRegistry, built by install()
        self._started = False

    # ------------------------------------------------------------------

    def install(self, monitored=None, gpa_node=None, zones=None):
        """Install Kprof/LPAs/daemons on ``monitored`` nodes (default: all)
        and the GPA on ``gpa_node`` (default: no global analyzer).

        ``zones`` is an optional list of :class:`ZoneSpec` (or equivalent
        dicts) describing a federation tree: each zone's member daemons
        publish on the zone's channel prefix, a :class:`ZoneGpa` on the
        zone's ``gpa_node`` condenses them, and condensed frames flow up
        to the parent tier (nested zones) or the root GPA.  With zones,
        ``monitored`` defaults to *no* extra flat-monitored nodes — zone
        members are installed through their specs.
        """
        if zones:
            self.federation = FederationTree()
            for spec in zones:
                self._install_zone(spec, parent_prefix=ROOT_PREFIX)
            for zone_gpa in self.federation.all_zones():
                if zone_gpa.standby and zone_gpa.standby not in self.federation.zones:
                    raise ValueError(
                        "zone {!r} names unknown standby zone {!r}".format(
                            zone_gpa.zone, zone_gpa.standby
                        )
                    )
            if monitored is None:
                monitored = []
        elif monitored is None:
            monitored = list(self.cluster.nodes)
        for name in monitored:
            self._install_node(self.cluster.node(name))
        if gpa_node is not None:
            node = self.cluster.node(gpa_node)
            self.gpa = GlobalPerformanceAnalyzer(
                node, self.hub, clock_table=self.clock_table,
                dump_path=self.config.dump_path,
                dump_interval=self.config.dump_interval,
                stale_threshold=self.config.stale_threshold,
            )
            self.gpa.subscribe_all()
        if self.federation is not None:
            # The adoption ledger needs the root tier to release
            # escalated members when they return to their zone.
            self.federation.root_gpa = self.gpa
        # One registry over every component's stats(), exposed through
        # /proc/sysprof/metrics on each involved node (pull-only).
        self.metrics = build_registry(self)
        return self

    def _install_zone(self, spec, parent_prefix, parent_standby=None):
        """Install one zone (and, recursively, its children).

        ``parent_standby`` is the *parent's* standby zone name: this
        zone's own uplink fails over to it when the parent tier dies,
        exactly as the zone's members fail over to ``spec.standby``.
        """
        if isinstance(spec, dict):
            spec = ZoneSpec(**spec)
        config = self.config
        prefix = zone_channel_prefix(spec.name)
        for member in spec.members:
            self._install_node(self.cluster.node(member), channel_prefix=prefix,
                               standby=spec.standby)
        node = self.cluster.node(spec.gpa_node)
        zone_gpa = ZoneGpa(
            spec.name, node, self.hub, clock_table=self.clock_table,
            stale_threshold=config.stale_threshold,
            parent_prefix=parent_prefix,
            forward_interval=spec.forward_interval or config.forward_interval,
        )
        zone_gpa.members = list(spec.members)
        zone_gpa.standby = spec.standby
        zone_gpa.subscribe_all()
        self.federation.add(zone_gpa)
        zone_gpa.publisher.parent_link = self._build_parent_link(
            zone_gpa.publisher, owner=zone_gpa.zone_node,
            primary_prefix=parent_prefix, standby=parent_standby,
            publish_interval=zone_gpa.forward_interval,
        )
        for child in spec.children:
            child_spec = ZoneSpec(**child) if isinstance(child, dict) else child
            zone_gpa.children.append(child_spec.name)
            self._install_zone(child_spec, parent_prefix=prefix,
                               parent_standby=spec.standby)
        return zone_gpa

    def _build_parent_link(self, publisher, owner, primary_prefix, standby,
                           publish_interval):
        """One reparent/return state machine per upward publisher.

        ``owner`` is the name adopted tiers track (a member node, or a
        ``zone:<name>`` pseudo-node for a zone's own uplink).  The lease
        runs four publish intervals: the eviction interval for a member
        daemon, the forward interval for a zone uplink.
        """
        federation = self.federation
        return ParentLink(
            owner, publisher, self.hub,
            primary_prefix=primary_prefix,
            standby_prefix=zone_channel_prefix(standby) if standby else None,
            standby_zone=standby,
            root_prefix=ROOT_PREFIX,
            lease_timeout=4.0 * publish_interval,
            probe_base=self.config.reparent_probe_base,
            probe_cap=self.config.reparent_probe_cap,
            on_reparent=lambda zone, member=owner: federation.note_adopted(
                member, zone
            ),
            on_return=lambda member=owner: federation.note_returned(member),
        )

    def _install_node(self, node, channel_prefix="sysprof/", standby=None):
        config = self.config
        kprof = Kprof(node.kernel).attach()
        interaction_lpa = InteractionLPA(
            node.kernel, kprof,
            buffer_capacity=config.buffer_capacity,
            predicate=exclude_port_range(SYSPROF_PORT_BASE, SYSPROF_PORT_LIMIT),
            granularity=config.granularity,
            arm=config.arm_correlation,
        )
        affinity = config.daemon_affinity
        if affinity is not None and affinity >= node.kernel.cpu_count:
            affinity = None  # uniprocessor nodes ignore the pin
        daemon = DisseminationDaemon(
            node, self.hub,
            eviction_interval=config.eviction_interval,
            channel_prefix=channel_prefix,
            text_encoding=config.text_encoding,
            affinity=affinity,
        )
        if channel_prefix != ROOT_PREFIX:
            # Zone members reparent on zone-GPA loss; flat daemons keep
            # the historical publish path (there is nowhere to go).
            daemon.publisher.parent_link = self._build_parent_link(
                daemon.publisher, owner=node.name,
                primary_prefix=channel_prefix, standby=standby,
                publish_interval=config.eviction_interval,
            )
        daemon.add_lpa(interaction_lpa)
        if config.nodestats:
            tracker = interaction_lpa.tracker
            daemon.add_lpa(NodeStatsLPA(
                node.kernel, kprof,
                pending_probe=lambda tracker=tracker: pending_interactions(tracker),
            ))
        syscall_lpa = None
        if config.syscall_stats:
            syscall_lpa = daemon.add_lpa(SyscallLPA(node.kernel, kprof))
        if config.latency_sketches:
            interaction_lpa.sketches = daemon.add_lpa(
                SketchLPA(node.kernel, kprof, interaction_lpa)
            )
        self.monitors[node.name] = NodeMonitor(
            node, kprof, interaction_lpa, daemon, syscall_lpa=syscall_lpa
        )

    # ------------------------------------------------------------------

    def start(self):
        """Activate all analyzers, daemons, and the GPA."""
        if self._started:
            return self
        if self.gpa is not None:
            self.gpa.start()
        if self.federation is not None:
            self.federation.start()
        stagger = self.config.eviction_stagger
        interval = self.config.eviction_interval
        for index, monitor in enumerate(self.monitors.values()):
            for lpa in monitor.daemon.lpas:
                lpa.start()
            offset = (index * stagger) % interval if stagger > 0.0 else 0.0
            if offset > 0.0:
                # Per-zone eviction pacing: spread daemon wakeups across
                # the eviction interval so a 256-node cluster doesn't
                # fire every eviction timer at the same instant.
                self.cluster.sim.schedule(offset, monitor.daemon.start)
            else:
                monitor.daemon.start()
        self._started = True
        return self

    def stop(self):
        """Unsubscribe everything; kernels revert to negligible-cost probes."""
        for monitor in self.monitors.values():
            for lpa in monitor.daemon.lpas:
                lpa.stop()
            monitor.daemon.stop()
        if self.federation is not None:
            self.federation.stop()
        if self.gpa is not None:
            self.gpa.stop()
        self._started = False

    # ------------------------------------------------------------------

    def tier_of(self, node):
        """The analyzer tier holding ``node``'s raw records: the adopter
        while the node is failed over, else its zone GPA (for a nested
        zone's ``zone:<name>`` heartbeat, the parent zone), else the root
        (the root of a federation sees only condensed zone rollups)."""
        federation = self.federation
        if federation is not None:
            if node in federation.adopted:
                adopter = federation._adopter_tier(federation.adopted[node])
                if adopter is not None:
                    return adopter
            zone_gpa = federation.locate_member(node)
            if zone_gpa is not None:
                return zone_gpa
        return self.gpa

    def monitor(self, node_name):
        return self.monitors[node_name]

    def lpa(self, node_name):
        return self.monitors[node_name].interaction_lpa

    def kprof(self, node_name):
        return self.monitors[node_name].kprof

    def flush(self, settle=0.5):
        """End-of-run flush: close open interactions, evict buffers, and run
        the simulator briefly so in-flight channel messages reach the GPA."""
        for monitor in self.monitors.values():
            if monitor.interaction_lpa is not None:
                monitor.interaction_lpa.flush_tracker()
            for lpa in monitor.daemon.lpas:
                lpa.evict()
        self.cluster.sim.run(until=self.cluster.sim.now + settle)

    def local_window(self, node_name):
        """Direct read of a node's recent-interaction window (local query)."""
        return self.monitors[node_name].interaction_lpa.window_snapshot()
