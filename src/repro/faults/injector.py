"""Arms a :class:`~repro.faults.schedule.FaultSchedule` against a cluster.

The injector translates scripted events into simulator callbacks at arm
time, so firing them costs no model CPU anywhere — faults are acts of
god, not workload.  Each fired event is appended to ``injector.log``
with its actual simulated time for post-run assertions.

Connection teardown semantics: the socket layer has no retransmission,
so a connection straddling a downed link or a partition boundary can
never make progress again — in-flight bytes are gone and flow-control
credits would leak, wedging the sender forever.  The injector therefore
aborts such connections on both ends when the fault lands (standing in
for the retransmission-timeout expiry a real TCP stack would hit),
delivering EOF to readers and :class:`~repro.sim.errors.ConnectionReset`
to writers.
"""

import math

from repro.faults import schedule as sched
from repro.ossim.task import BAND_KERNEL, BAND_USER
from repro.sim.errors import SimError

#: Duty-cycle slice for cpu_hog tasks: short enough that sub-unity
#: utilizations interleave with the victim under the 10ms round-robin
#: quantum, long enough to keep the event count per hog small.
_HOG_BURST = 0.005


class FaultInjector:
    """Schedules and fires faults; one per run."""

    #: The named random substream fault-time jitter draws from.
    rng_name = "faults.jitter"

    def __init__(self, cluster, sysprof=None):
        self.cluster = cluster
        self.sysprof = sysprof
        self.log = []  # [{"at": fired_time, "kind": ..., "target": ...}]
        self.fired = 0
        self.hogs_spawned = 0
        self.injected = 0  # events added mid-run via inject()
        self._armed = False
        self._rng = None
        self._handlers = {
            sched.KIND_DAEMON_KILL: self._do_daemon_kill,
            sched.KIND_DAEMON_RESTART: self._do_daemon_restart,
            sched.KIND_GPA_KILL: self._do_gpa_kill,
            sched.KIND_GPA_RESTART: self._do_gpa_restart,
            sched.KIND_ZONE_GPA_KILL: self._do_zone_gpa_kill,
            sched.KIND_ZONE_GPA_RESTART: self._do_zone_gpa_restart,
            sched.KIND_NODE_CRASH: self._do_node_crash,
            sched.KIND_LINK_DOWN: self._do_link_down,
            sched.KIND_LINK_UP: self._do_link_up,
            sched.KIND_PARTITION: self._do_partition,
            sched.KIND_HEAL: self._do_heal,
            sched.KIND_CPU_HOG: self._do_cpu_hog,
            sched.KIND_PARENT_PARTITION: self._do_parent_partition,
        }
        if sysprof is not None and getattr(sysprof, "metrics", None) is not None:
            sysprof.metrics.register_source("sysprof.faults", self.stats)

    # ------------------------------------------------------------------

    def arm(self, schedule):
        """Validate ``schedule`` and register every event with the sim.

        Jittered events resolve their one RNG draw here, in schedule
        order, so the draw sequence — hence the whole run — depends only
        on (seed, schedule).  A schedule with no jittered events never
        touches the RNG at all.
        """
        if self._armed:
            raise SimError("injector already armed")
        schedule.validate()
        sim = self.cluster.sim
        for event in schedule.events():
            at = event.at
            if event.jitter:
                at += event.jitter * self._jitter_rng().random()
            if at < sim.now:
                raise SimError(
                    "fault {} at {} is in the past (now {})".format(
                        event.kind, at, sim.now
                    )
                )
            sim.schedule(at - sim.now, self._fire, event)
        self._armed = True
        return self

    def inject(self, schedule, base=None):
        """Register more events mid-run (the service control plane).

        Unlike :meth:`arm` — a one-shot for the scripted pre-run plan —
        this may be called any number of times while the simulation is
        live.  Event ``at`` offsets are relative to ``base`` (default:
        the current simulated time), so an ``at=0.5`` event injected at
        t=10 fires at t=10.5.  Determinism note: an inject is a control
        input; two runs issuing the same injects at the same simulated
        times replay identically, and a run with no injects is untouched.

        Every event is checked before any is registered: a target this
        cluster lacks or a time in the past raises :class:`SimError` and
        registers nothing, so a bad request can never fail at fire time
        and take the run down.
        """
        schedule.validate()
        sim = self.cluster.sim
        if base is None:
            base = sim.now
        events = schedule.events()
        for event in events:
            self._check_targets(event)
        timed = []
        for event in events:
            at = base + event.at
            if event.jitter:
                at += event.jitter * self._jitter_rng().random()
            if not sim.now <= at < math.inf:
                raise SimError(
                    "fault {} at {} is in the past or not finite (now {})".format(
                        event.kind, at, sim.now
                    )
                )
            timed.append((at, event))
        registered = []
        for at, event in timed:
            sim.schedule(at - sim.now, self._fire, event)
            registered.append({"kind": event.kind, "target": event.target,
                               "at": at})
        self.injected += len(registered)
        return registered

    def _check_targets(self, event):
        """Raise :class:`SimError` unless every name ``event`` hits exists."""
        kind = event.kind
        if kind in sched.NODE_TARGET_KINDS:
            self._check_node(kind, event.target)
        if kind in (sched.KIND_DAEMON_KILL, sched.KIND_DAEMON_RESTART):
            monitors = self.sysprof.monitors if self.sysprof is not None else {}
            if event.target not in monitors:
                raise SimError(
                    "{}: node {!r} is not monitored".format(kind, event.target)
                )
        if kind == sched.KIND_PARTITION:
            for group in event.params["groups"]:
                if not isinstance(group, (list, tuple)):
                    raise SimError(
                        "partition groups must be lists of node names"
                    )
                for name in group:
                    self._check_node(kind, name)
        if kind in sched.ZONE_TARGET_KINDS:
            if not isinstance(event.target, str):
                raise SimError(
                    "unknown federation zone: {!r}".format(event.target)
                )
            self._zone(event.target)

    def _check_node(self, kind, name):
        if not (isinstance(name, str) and name in self.cluster.nodes):
            raise SimError("{}: unknown node {!r}".format(kind, name))

    def _jitter_rng(self):
        if self._rng is None:
            self._rng = self.cluster.streams.stream(self.rng_name)
        return self._rng

    def _fire(self, event):
        self._handlers[event.kind](event)
        self.fired += 1
        self.log.append(
            {
                "at": self.cluster.sim.now,
                "kind": event.kind,
                "target": event.target,
            }
        )

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _monitor(self, name):
        if self.sysprof is None:
            raise SimError("daemon faults need a SysProf installation")
        return self.sysprof.monitor(name)

    def _do_daemon_kill(self, event):
        self._monitor(event.target).daemon.kill(
            "fault:{}".format(event.kind)
        )

    def _do_daemon_restart(self, event):
        self._monitor(event.target).daemon.restart()

    def _do_gpa_kill(self, event):
        if self.sysprof is None or self.sysprof.gpa is None:
            raise SimError("gpa faults need an installed GPA")
        self.sysprof.gpa.kill("fault:{}".format(event.kind))

    def _do_gpa_restart(self, event):
        self.sysprof.gpa.restart()

    def _zone(self, name):
        if self.sysprof is None or self.sysprof.federation is None:
            raise SimError("zone faults need a federated SysProf installation")
        try:
            return self.sysprof.federation.zone(name)
        except KeyError:
            raise SimError("unknown federation zone: {!r}".format(name)) from None

    def _do_zone_gpa_kill(self, event):
        self._zone(event.target).kill("fault:{}".format(event.kind))

    def _do_zone_gpa_restart(self, event):
        self._zone(event.target).restart()

    def _do_node_crash(self, event):
        node = self.cluster.node(event.target)
        # Monitoring components on the node get their bookkeeping torn
        # down first (pending notification waiters, publish sockets);
        # kernel.crash then kills whatever tasks remain.
        if self.sysprof is not None:
            monitor = self.sysprof.monitors.get(event.target)
            if monitor is not None:
                monitor.daemon.kill("fault:{}".format(event.kind))
            gpa = self.sysprof.gpa
            if gpa is not None and gpa.node.name == event.target:
                gpa.kill("fault:{}".format(event.kind))
        node.crash("fault:{}".format(event.kind))

    def _do_link_down(self, event):
        ip = self.cluster.node(event.target).ip
        self.cluster.fabric.set_link_admin(ip, False)
        self._abort_connections(
            lambda sock: (sock.local.ip == ip) != (sock.remote.ip == ip)
        )

    def _do_link_up(self, event):
        ip = self.cluster.node(event.target).ip
        self.cluster.fabric.set_link_admin(ip, True)

    def _do_partition(self, event):
        groups = [
            [self.cluster.node(name).ip for name in group]
            for group in event.params["groups"]
        ]
        self._partition_ips(groups)

    def _do_parent_partition(self, event):
        """Cut a zone off from its parent tier (see FaultSchedule).

        ``uplink`` puts the whole zone subtree (members + GPA node) on
        one side; ``gpa`` isolates just the zone's GPA node, forcing the
        members to reparent."""
        zone = self._zone(event.target)
        scope = event.params.get("scope", "uplink")
        island = {zone.node.name}
        if scope == "uplink":
            island.update(zone.members)
        rest = [
            name for name in self.cluster.nodes if name not in island
        ]
        self._partition_ips([
            [self.cluster.node(name).ip for name in sorted(island)],
            [self.cluster.node(name).ip for name in rest],
        ])

    def _partition_ips(self, groups):
        self.cluster.fabric.partition(*groups)
        crosses = self.cluster.fabric.switch.crosses_partition
        self._abort_connections(
            lambda sock: crosses(sock.local.ip, sock.remote.ip)
        )

    def _do_heal(self, event):
        self.cluster.fabric.heal()

    def _do_cpu_hog(self, event):
        node = self.cluster.node(event.target)
        duration = float(event.params["duration"])
        utilization = float(event.params.get("utilization", 1.0))
        band_name = event.params.get("band", "kernel")
        band = BAND_KERNEL if band_name == "kernel" else BAND_USER

        def hog(ctx):
            # Duty-cycle loop: burn ``utilization`` of each slice, sleep
            # the rest.  The burn itself is ordinary task CPU, so the
            # ledger attributes it to the workload — a hog is a
            # misbehaving application, not a monitoring cost.
            end = ctx.now + duration
            burn = _HOG_BURST * utilization
            idle = _HOG_BURST - burn
            while ctx.now < end:
                if band == BAND_KERNEL:
                    yield from ctx.kcompute(burn)
                else:
                    yield from ctx.compute(burn)
                if idle > 0.0:
                    yield from ctx.sleep(idle)

        node.spawn("cpu-hog", hog, band=band)
        self.hogs_spawned += 1

    def _abort_connections(self, crossing):
        """RTO stand-in: abort every established connection the fault cut."""
        for node in self.cluster.nodes.values():
            for sock in list(node.kernel._sockets.values()):
                if sock.remote is not None and crossing(sock):
                    sock.abort()

    # ------------------------------------------------------------------

    def summary(self):
        """Fired-event counts by kind (for reports and tests)."""
        counts = {}
        for entry in self.log:
            counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
        return counts

    def stats(self):
        """Counters for the metrics registry (``sysprof.faults``)."""
        return {"fired": self.fired, "hogs_spawned": self.hogs_spawned,
                "injected": self.injected}
