"""Fault schedules: what breaks, when, and for how long.

A schedule is pure data — building one touches no simulator state and
draws no randomness, so schedules can be constructed, serialized,
diffed, and replayed.  The :class:`~repro.faults.injector.FaultInjector`
resolves it against a live cluster at arm time.
"""

KIND_DAEMON_KILL = "daemon_kill"
KIND_DAEMON_RESTART = "daemon_restart"
KIND_GPA_KILL = "gpa_kill"
KIND_GPA_RESTART = "gpa_restart"
KIND_ZONE_GPA_KILL = "zone_gpa_kill"
KIND_ZONE_GPA_RESTART = "zone_gpa_restart"
KIND_NODE_CRASH = "node_crash"
KIND_LINK_DOWN = "link_down"
KIND_LINK_UP = "link_up"
KIND_PARTITION = "partition"
KIND_HEAL = "heal"
KIND_CPU_HOG = "cpu_hog"
KIND_PARENT_PARTITION = "parent_partition"

KINDS = frozenset(
    {
        KIND_DAEMON_KILL,
        KIND_DAEMON_RESTART,
        KIND_GPA_KILL,
        KIND_GPA_RESTART,
        KIND_ZONE_GPA_KILL,
        KIND_ZONE_GPA_RESTART,
        KIND_NODE_CRASH,
        KIND_LINK_DOWN,
        KIND_LINK_UP,
        KIND_PARTITION,
        KIND_HEAL,
        KIND_CPU_HOG,
        KIND_PARENT_PARTITION,
    }
)

#: Valid ``band`` values for cpu_hog.
CPU_HOG_BANDS = ("kernel", "user")

#: Valid ``scope`` values for parent_partition.  ``uplink`` cuts the
#: whole zone subtree (members + zone GPA) off from the rest of the
#: cluster — the zone's *upward* forwards fail while members still reach
#: their zone GPA.  ``gpa`` isolates only the zone GPA node, so members
#: lose their parent tier and must reparent.
PARENT_PARTITION_SCOPES = ("uplink", "gpa")

#: Kinds whose target names a node; the rest target the whole fabric/GPA.
NODE_TARGET_KINDS = frozenset(
    {
        KIND_DAEMON_KILL,
        KIND_DAEMON_RESTART,
        KIND_NODE_CRASH,
        KIND_LINK_DOWN,
        KIND_LINK_UP,
        KIND_CPU_HOG,
    }
)

#: Kinds whose target names a federation zone.
ZONE_TARGET_KINDS = frozenset(
    {KIND_ZONE_GPA_KILL, KIND_ZONE_GPA_RESTART, KIND_PARENT_PARTITION}
)


class ScheduleError(ValueError):
    """A schedule entry is malformed (unknown kind, bad time, bad target)."""


class FaultEvent:
    """One scripted fault: ``kind`` hits ``target`` at simulated time ``at``.

    ``jitter`` adds up to that many seconds of seeded random delay,
    resolved with exactly one RNG draw at arm time (zero jitter draws
    nothing).  ``seq`` preserves authoring order among same-time events.
    """

    __slots__ = ("at", "kind", "target", "params", "jitter", "seq")

    def __init__(self, at, kind, target=None, params=None, jitter=0.0, seq=0):
        self.at = float(at)
        self.kind = kind
        self.target = target
        self.params = dict(params or {})
        self.jitter = float(jitter)
        self.seq = seq

    def validate(self):
        if self.kind not in KINDS:
            raise ScheduleError("unknown fault kind: {!r}".format(self.kind))
        # ``not x >= 0`` also refuses NaN, which every comparison fails.
        if not self.at >= 0.0:
            raise ScheduleError(
                "fault time must be >= 0, got {}".format(self.at)
            )
        if not self.jitter >= 0.0:
            raise ScheduleError("jitter must be >= 0")
        if self.kind in NODE_TARGET_KINDS and not self.target:
            raise ScheduleError("{} requires a target node".format(self.kind))
        if self.kind in ZONE_TARGET_KINDS and not self.target:
            raise ScheduleError("{} requires a target zone".format(self.kind))
        if self.kind == KIND_PARTITION:
            groups = self.params.get("groups")
            if not groups or not all(group for group in groups):
                raise ScheduleError("partition requires non-empty groups")
        if self.kind == KIND_PARENT_PARTITION:
            scope = self.params.get("scope", "uplink")
            if scope not in PARENT_PARTITION_SCOPES:
                raise ScheduleError(
                    "parent_partition scope must be one of {}, got {!r}".format(
                        PARENT_PARTITION_SCOPES, scope
                    )
                )
        if self.kind == KIND_CPU_HOG:
            if not float(self.params.get("duration", 0.0)) > 0.0:
                raise ScheduleError("cpu_hog requires duration > 0")
            utilization = float(self.params.get("utilization", 1.0))
            if not 0.0 < utilization <= 1.0:
                raise ScheduleError(
                    "cpu_hog utilization must be in (0, 1], got {}".format(
                        utilization
                    )
                )
            band = self.params.get("band", "kernel")
            if band not in CPU_HOG_BANDS:
                raise ScheduleError(
                    "cpu_hog band must be one of {}, got {!r}".format(
                        CPU_HOG_BANDS, band
                    )
                )

    def to_dict(self):
        entry = {"at": self.at, "kind": self.kind}
        if self.target is not None:
            entry["target"] = self.target
        if self.params:
            entry["params"] = {
                key: [list(group) for group in value] if key == "groups" else value
                for key, value in self.params.items()
            }
        if self.jitter:
            entry["jitter"] = self.jitter
        return entry

    def __repr__(self):
        return "<FaultEvent t={:.3f} {} {}>".format(
            self.at, self.kind, self.target or self.params or ""
        )


class FaultSchedule:
    """An ordered script of :class:`FaultEvent`.

    Builder methods return ``self`` for chaining; ``*_outage`` /
    ``partition_window`` helpers script the down *and* up sides of a
    failure window in one call.
    """

    def __init__(self):
        self._events = []

    def __len__(self):
        return len(self._events)

    def __repr__(self):
        return "<FaultSchedule {} events>".format(len(self._events))

    def add(self, at, kind, target=None, params=None, jitter=0.0):
        event = FaultEvent(
            at, kind, target=target, params=params, jitter=jitter,
            seq=len(self._events),
        )
        event.validate()
        self._events.append(event)
        return self

    # -- daemon / GPA process faults ------------------------------------

    def kill_daemon(self, at, node, jitter=0.0):
        return self.add(at, KIND_DAEMON_KILL, target=node, jitter=jitter)

    def restart_daemon(self, at, node, jitter=0.0):
        return self.add(at, KIND_DAEMON_RESTART, target=node, jitter=jitter)

    def daemon_outage(self, start, duration, node, jitter=0.0):
        self.kill_daemon(start, node, jitter=jitter)
        return self.restart_daemon(start + duration, node, jitter=jitter)

    def kill_gpa(self, at, jitter=0.0):
        return self.add(at, KIND_GPA_KILL, jitter=jitter)

    def restart_gpa(self, at, jitter=0.0):
        return self.add(at, KIND_GPA_RESTART, jitter=jitter)

    def gpa_outage(self, start, duration, jitter=0.0):
        self.kill_gpa(start, jitter=jitter)
        return self.restart_gpa(start + duration, jitter=jitter)

    # -- zone GPA faults (federated installs) ----------------------------

    def kill_zone_gpa(self, at, zone, jitter=0.0):
        return self.add(at, KIND_ZONE_GPA_KILL, target=zone, jitter=jitter)

    def restart_zone_gpa(self, at, zone, jitter=0.0):
        return self.add(at, KIND_ZONE_GPA_RESTART, target=zone, jitter=jitter)

    def zone_outage(self, start, duration, zone, jitter=0.0):
        """Kill one zone's aggregation tier for ``duration`` seconds; the
        parent tier should see only that zone's pseudo-node go stale."""
        self.kill_zone_gpa(start, zone, jitter=jitter)
        return self.restart_zone_gpa(start + duration, zone, jitter=jitter)

    # -- whole-node crash ------------------------------------------------

    def crash_node(self, at, node, jitter=0.0):
        return self.add(at, KIND_NODE_CRASH, target=node, jitter=jitter)

    # -- resource contention ---------------------------------------------

    def cpu_hog(self, at, node, duration, utilization=1.0, band="kernel",
                jitter=0.0):
        """A runaway task burns ``utilization`` of one core on ``node``
        for ``duration`` seconds.  ``band`` is ``"kernel"`` or ``"user"``;
        kernel-band hogs compete with in-kernel services (nfsd, sysprofd)
        under the round-robin quantum, which is the degradation the
        online diagnosis engine is built to catch."""
        return self.add(
            at, KIND_CPU_HOG, target=node,
            params={
                "duration": float(duration),
                "utilization": float(utilization),
                "band": band,
            },
            jitter=jitter,
        )

    # -- network faults --------------------------------------------------

    def link_down(self, at, node, jitter=0.0):
        return self.add(at, KIND_LINK_DOWN, target=node, jitter=jitter)

    def link_up(self, at, node, jitter=0.0):
        return self.add(at, KIND_LINK_UP, target=node, jitter=jitter)

    def link_outage(self, start, duration, node, jitter=0.0):
        self.link_down(start, node, jitter=jitter)
        return self.link_up(start + duration, node, jitter=jitter)

    def partition(self, at, groups, jitter=0.0):
        groups = [list(group) for group in groups]
        return self.add(at, KIND_PARTITION, params={"groups": groups}, jitter=jitter)

    def heal(self, at, jitter=0.0):
        return self.add(at, KIND_HEAL, jitter=jitter)

    def partition_window(self, start, duration, groups, jitter=0.0):
        self.partition(start, groups, jitter=jitter)
        return self.heal(start + duration, jitter=jitter)

    # -- federation parent loss ------------------------------------------

    def parent_partition(self, at, zone, scope="uplink", jitter=0.0):
        """Cut a federation zone off from its parent tier.

        ``scope="uplink"`` partitions the whole zone subtree (members +
        zone GPA) from the rest of the cluster: members still reach
        their zone GPA, but the zone's upward forwards fail — the
        retention path must hold condensation windows until heal.
        ``scope="gpa"`` isolates only the zone's GPA node: members lose
        their parent and must reparent to the standby / root."""
        return self.add(
            at, KIND_PARENT_PARTITION, target=zone,
            params={"scope": scope}, jitter=jitter,
        )

    def parent_partition_window(self, start, duration, zone, scope="uplink",
                                jitter=0.0):
        self.parent_partition(start, zone, scope=scope, jitter=jitter)
        return self.heal(start + duration, jitter=jitter)

    # -- access / serialization ------------------------------------------

    def events(self):
        """Events in firing order (time, then authoring order)."""
        return sorted(self._events, key=lambda event: (event.at, event.seq))

    def validate(self):
        for event in self._events:
            event.validate()
        return self

    def to_dict(self):
        return {"events": [event.to_dict() for event in self.events()]}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a schedule from :meth:`to_dict` output.

        The dict may come from outside the program (the control plane's
        ``inject_fault``), so every malformed entry raises
        :class:`ScheduleError` naming the entry's index.
        """
        events = data.get("events", ())
        if not isinstance(events, (list, tuple)):
            raise ScheduleError("events must be a list")
        schedule = cls()
        for index, entry in enumerate(events):
            if not isinstance(entry, dict):
                raise ScheduleError("event {}: not an object".format(index))
            missing = [key for key in ("at", "kind") if key not in entry]
            if missing:
                raise ScheduleError(
                    "event {}: missing {}".format(index, ", ".join(missing))
                )
            try:
                schedule.add(
                    entry["at"],
                    entry["kind"],
                    target=entry.get("target"),
                    params=entry.get("params"),
                    jitter=entry.get("jitter", 0.0),
                )
            except (ValueError, TypeError, ArithmeticError) as exc:
                raise ScheduleError("event {}: {}".format(index, exc)) from None
        return schedule
