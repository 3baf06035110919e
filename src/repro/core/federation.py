"""Federation tree: zone-level GPAs with bounded root bandwidth.

A flat SysProf install fans every daemon's frames into one global
aggregation point, so root ingress grows linearly with node count.  The
federation tree scales this out (ROADMAP item 1): each rack's daemons
publish on a zone-scoped channel prefix (``sysprof@<zone>/``) consumed
by a :class:`ZoneGpa`, which merges quantile sketches and class
summaries locally and forwards *condensed* frames upward on a
configurable interval over the same frame wire — merged
``sysprof.sketch`` rows, per-class ``sysprof.class_summary`` rollups,
and a single zone-health ``sysprof.nodestats`` heartbeat, all under the
zone pseudo-node name ``zone:<name>``.  Root ingress then scales with
zones × classes, not nodes × classes, and a zone-GPA kill degrades one
zone's staleness rather than the cluster's.

Zones nest: a child zone's parent prefix is its parent zone's channel
prefix, so 3-tier trees (leaf zones → super-zones → root) compose from
the same class.  Upward publication reuses the daemon's exact
endpoint/backoff machinery via
:class:`~repro.core.publisher.ChannelPublisher`.

Partition tolerance: every upward publisher can carry a
:class:`ParentLink` — a reparent/return state machine.  When the parent
tier goes quiet (publish failures past ``loss_failures``, or a lease
timeout after the first failure), the link fails over to the zone's
configured standby prefix (or escalates to the root prefix), then
probes the original parent with seeded-jitter exponential backoff and
returns once it answers.  :class:`FederationTree` tracks which tier is
currently *adopting* each failed-over member so staleness detection and
blame descent follow the rewired path without double-counting.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.core import encoding
from repro.core.lpa import CLASS_SUMMARY_FORMAT, NODE_STATS_FORMAT, SKETCH_FORMAT
from repro.core.publisher import ChannelPublisher
from repro.core.tier import AnalyzerTier

#: Prefix for zone pseudo-node names in upward-forwarded rows.  The
#: resulting name must fit the record formats' ``str16`` node field, so
#: zone names are capped at 11 characters.
ZONE_NODE_PREFIX = "zone:"


#: The root tier's channel prefix (flat installs and the top of the tree).
ROOT_PREFIX = "sysprof/"


def zone_channel_prefix(zone):
    """The channel prefix a zone's member daemons publish on."""
    return "sysprof@{}/".format(zone)


@dataclass
class ZoneSpec:
    """Declarative description of one zone for ``SysProf.install``."""

    name: str
    gpa_node: str
    members: list = field(default_factory=list)
    children: list = field(default_factory=list)  # nested ZoneSpecs
    forward_interval: Optional[float] = None  # None -> SysProfConfig default
    # Zone that covers for this one when its GPA dies: members (and
    # child zones) reparent to the standby's channel prefix instead of
    # escalating straight to the root.  None -> escalate to root.
    standby: Optional[str] = None


class ParentLink:
    """Reparent/return state machine for one tier's upward publisher.

    Wraps a :class:`~repro.core.publisher.ChannelPublisher`.  The
    publisher notifies the link of every send outcome; the link holds a
    *lease* on the parent (renewed by successful sends) and, once the
    parent looks dead — ``loss_failures`` consecutive failures, or
    ``lease_timeout`` seconds past the first unacknowledged failure —
    switches the publisher onto the next fallback prefix (standby zone,
    then root).  Descriptor re-send comes for free: the new endpoints
    have no entry in the publisher's socket-identity format map.

    While failed over, the link probes the primary endpoint with
    exponential backoff times seeded jitter (a lazy RNG substream drawn
    only after a failure, so fault-free runs stay byte-identical) and
    returns as soon as the primary accepts a connection — the probe
    socket is adopted as the live publish socket.

    With no fallbacks (a top-level zone whose parent *is* the root) the
    link still enters failover as a probe-only state: it revives the
    abandoned endpoint when the root returns, fixing the permanent
    blackout a spent retry budget used to cause.
    """

    #: Any tier channel works for probing — all of a tier's channels
    #: share one (node, port) endpoint.
    PROBE_FORMAT = "sysprof.nodestats"

    def __init__(self, name, publisher, hub, primary_prefix,
                 standby_prefix=None, standby_zone=None,
                 root_prefix=ROOT_PREFIX, loss_failures=3, lease_timeout=1.0,
                 probe_base=0.5, probe_cap=4.0, probe_jitter=0.5,
                 on_reparent=None, on_return=None):
        self.name = name
        self.publisher = publisher
        self.hub = hub
        self.primary_prefix = primary_prefix
        self.loss_failures = max(1, int(loss_failures))
        self.lease_timeout = float(lease_timeout)
        self.probe_base = probe_base
        self.probe_cap = probe_cap
        self.probe_jitter = probe_jitter
        self.on_reparent = on_reparent  # fn(zone_name_or_None) on target switch
        self.on_return = on_return      # fn() when back on the primary
        # Fallback ladder: (prefix, zone name or None for the root).
        self._fallbacks = []
        if standby_prefix and standby_prefix != primary_prefix:
            self._fallbacks.append((standby_prefix, standby_zone))
        if root_prefix != primary_prefix and all(
                prefix != root_prefix for prefix, _zone in self._fallbacks):
            self._fallbacks.append((root_prefix, None))
        self.state = "primary"
        self._target_index = -1  # index into _fallbacks while failed over
        self._consecutive_failures = 0
        self._first_failure_at = None
        self._failover_at = None
        self._next_probe_at = 0.0
        self._probe_round = 0
        self._rng = None
        self.last_ok = None
        self.reparents = 0
        self.escalations = 0
        self.returns = 0
        self.probes = 0
        self.probe_failures = 0
        self.coverage_gap_s = 0.0  # summed failover-window seconds
        self.events = []  # [{"at", "event", "target", "reason"}]
        self.listeners = []  # host-side fns: fn(link_name, event_dict)

    # -- publisher callbacks --------------------------------------------

    def note_success(self, now):
        """A send reached the current target: renew the lease."""
        self.last_ok = now
        self._consecutive_failures = 0
        self._first_failure_at = None

    def note_failure(self, now):
        """A send or connect toward the current target failed."""
        self._consecutive_failures += 1
        if self._first_failure_at is None:
            self._first_failure_at = now
        if self._consecutive_failures >= self.loss_failures:
            self._advance(now, reason="retry-budget")

    def check(self, ctx):
        """Called at the top of every publish cycle.  Zero yields while
        healthy; drives the lease timeout and the paced return probe."""
        now = ctx.now
        if (self._first_failure_at is not None
                and now - self._first_failure_at >= self.lease_timeout):
            self._advance(now, reason="lease-timeout")
        if self.state != "failover" or now < self._next_probe_at:
            return
        yield from self._probe_primary(ctx)

    # -- state transitions ----------------------------------------------

    def _advance(self, now, reason):
        self._consecutive_failures = 0
        self._first_failure_at = None
        if self.state == "primary":
            self.state = "failover"
            self._failover_at = now
            self._probe_round = 0
            self._schedule_probe(now)
            self.reparents += 1
            if self._fallbacks:
                self._target_index = 0
                prefix, zone = self._fallbacks[0]
                self.publisher.channel_prefix = prefix
                self._record(now, "reparent", zone or "root", reason)
                if self.on_reparent is not None:
                    self.on_reparent(zone)
            else:
                self._record(now, "probe-only", "primary", reason)
        elif self._target_index + 1 < len(self._fallbacks):
            # The standby died too: escalate one rung up the ladder.
            self._target_index += 1
            prefix, zone = self._fallbacks[self._target_index]
            self.publisher.channel_prefix = prefix
            self.escalations += 1
            self._record(now, "escalate", zone or "root", reason)
            if self.on_reparent is not None:
                self.on_reparent(zone)

    def _probe_primary(self, ctx):
        self.probes += 1
        self._probe_round += 1
        self._schedule_probe(ctx.now)
        endpoints = self.hub.subscribers(self.primary_prefix + self.PROBE_FORMAT)
        if not endpoints:
            self.probe_failures += 1
            return
        endpoint = endpoints[0]
        try:
            sock = yield from ctx.connect(*endpoint)
        except Exception:
            self.probe_failures += 1
            yield from ctx.kcompute(
                self.publisher.node.kernel.costs.daemon_reconnect
            )
            return
        self._return_to_primary(ctx.now, endpoint, sock)

    def _return_to_primary(self, now, endpoint, sock):
        was_reparented = self._target_index >= 0
        self.publisher.channel_prefix = self.primary_prefix
        # The probe connection becomes the live socket; the fresh
        # descriptor set means every format is re-sent to the reborn
        # parent (its decode registry died with the old process).
        self.publisher.adopt_socket(endpoint, sock)
        self.state = "primary"
        self._target_index = -1
        self._consecutive_failures = 0
        self._first_failure_at = None
        if self._failover_at is not None:
            self.coverage_gap_s += now - self._failover_at
            self._failover_at = None
        self.returns += 1
        self._record(now, "return", "primary", "probe-connected")
        if was_reparented and self.on_return is not None:
            self.on_return()

    def _schedule_probe(self, now):
        delay = min(
            self.probe_cap,
            self.probe_base * (2.0 ** min(self._probe_round, 8)),
        )
        if self.probe_jitter:
            delay *= 1.0 + self.probe_jitter * self._jitter_rng().random()
        self._next_probe_at = now + delay

    def _jitter_rng(self):
        """Lazy seeded substream — only ever drawn after a parent loss,
        so fault-free digests are unchanged; seeded per link, so a rack
        of members spreads its return probes instead of stampeding."""
        if self._rng is None:
            self._rng = self.publisher.node.cluster.streams.stream(
                "reparent.{}".format(self.name)
            )
        return self._rng

    def _record(self, now, event, target, reason):
        entry = {"at": now, "event": event, "target": target, "reason": reason}
        self.events.append(entry)
        # Listeners (the service layer's reparent stream) are observers:
        # they run on the host side and must not touch the simulation.
        for fn in list(self.listeners):
            fn(self.name, entry)

    # -- reporting -------------------------------------------------------

    def stats(self):
        gap = self.coverage_gap_s
        return {
            "failed_over": 1 if self.state == "failover" else 0,
            "reparents": self.reparents,
            "escalations": self.escalations,
            "returns": self.returns,
            "probes": self.probes,
            "probe_failures": self.probe_failures,
            "coverage_gap_s": round(gap, 6),
        }


class ZoneGpa(AnalyzerTier):
    """One federation tier: ingests a zone's frames, forwards condensed
    rollups to the parent tier."""

    task_name = "zone-gpa"
    conn_task_name = "zone-gpa-conn"
    history = 20000

    def __init__(self, zone, node, hub, clock_table=None, stale_threshold=1.0,
                 parent_prefix="sysprof/", forward_interval=0.5):
        zone_node = ZONE_NODE_PREFIX + zone
        if len(zone_node) > 16:
            raise ValueError(
                "zone name {!r} too long for the str16 node field".format(zone)
            )
        super().__init__(
            node, hub, clock_table=clock_table,
            stale_threshold=stale_threshold,
            channel_prefix=zone_channel_prefix(zone),
        )
        self.zone = zone
        self.zone_node = zone_node
        self.parent_prefix = parent_prefix
        self.forward_interval = forward_interval
        self.members = []  # monitored node names (filled by the installer)
        self.children = []  # nested zone names (filled by the installer)
        self.standby = None  # standby zone name (filled by the installer)
        self.publisher = ChannelPublisher(
            node, hub, channel_prefix=parent_prefix,
            rng_label="zonegpa.backoff.{}".format(node.name),
            pid_fn=lambda: self._forward_task.pid if self._forward_task else 0,
        )
        # Formats this tier *produces*; ingest decodes with one registry
        # per connection, re-learned from descriptors after a restart.
        self.out_registry = encoding.FormatRegistry()
        # Condensation state accumulated since the last forward; exact:
        # sketch merges are lossless bucket additions, summaries are
        # count-weighted.  Dies with the process on kill().
        self._pending_sketches = {}  # (class, metric) -> [sketch, start, end]
        self._pending_classes = {}  # class -> weighted accumulator
        # Member names the heartbeat sums, each read as node_stats[name][-1];
        # a dict used as an ordered set, so the sums run in a fixed order.
        self._member_last = {}
        self._forward_task = None
        self.forwards = 0
        self.rows_forwarded = 0
        self.forward_failures = 0
        self.sketch_merges = 0

    # -- lifecycle -------------------------------------------------------

    def _start_aux(self):
        self._forward_task = self.node.spawn("zone-gpa-fwd", self._forwarder)
        self._forward_task.category = "analyzer"

    def _aux_tasks(self):
        return [self._forward_task]

    def stop(self):
        flush_needed = (
            not self._stopped and self._server_task is not None
            and bool(self._pending_sketches or self._pending_classes)
        )
        super().stop()
        if flush_needed:
            # The forwarder exits at its next wakeup without another
            # forward pass, so rows condensed since the last interval
            # would silently die with the shutdown.  Flush them once.
            task = self.node.spawn("zone-gpa-flush", self._forward_up)
            task.category = "analyzer"

    def _on_killed(self):
        self._forward_task = None
        self._pending_sketches = {}
        self._pending_classes = {}
        self._member_last = {}
        # Upward sockets died with the process; the parent tier observes
        # resets and our next forward reconnects + re-sends descriptors.
        self.publisher.forget_all()

    def release_member(self, node_name):
        """Drop an adopted member's traces when it returns to its own
        zone, so the heartbeat sums and staleness view stop counting it."""
        super().release_member(node_name)
        self._member_last.pop(node_name, None)

    # -- ingest-side condensation ---------------------------------------

    def ingest(self, format_name, records):
        stored = super().ingest(format_name, records)
        if format_name == "sysprof.sketch":
            self._accumulate_sketches(stored)
        elif format_name == "sysprof.class_summary":
            self._accumulate_summaries(records)
        elif format_name == "sysprof.nodestats":
            for record in records:
                self._member_last[record["node"]] = None

    def _accumulate_sketches(self, stored):
        """Merge incoming sketch rows into the pending per-(class, metric)
        rollup at ingest time — windows are never re-read from the store,
        so nothing is dropped or double-counted across forward intervals.

        ``stored`` holds the ``(record, sketch)`` pairs the store just
        accepted; a refused row is folded nowhere."""
        to_reference = self.to_reference
        for record, sketch in stored:
            node = record["node"]
            if self._fold_sketch(
                    (record["request_class"], record["metric"]), sketch,
                    to_reference(node, record["window_start"]),
                    to_reference(node, record["window_end"])):
                self.sketch_merges += 1

    def _fold_sketch(self, key, sketch, start, end):
        """Fold one window into the pending ``key`` rollup; returns
        whether it merged into an existing one.  A new rollup starts
        from a copy, so later merges never change ``sketch``."""
        entry = self._pending_sketches.get(key)
        if entry is None:
            self._pending_sketches[key] = [sketch.copy(), start, end]
            return False
        entry[0].merge(sketch)
        entry[1] = min(entry[1], start)
        entry[2] = max(entry[2], end)
        return True

    def _accumulate_summaries(self, records):
        to_reference = self.to_reference
        for record in records:
            count = record["count"]
            node = record["node"]
            self._fold_summary(record["request_class"], {
                "count": count,
                "latency": record["mean_latency"] * count,
                "kernel": record["mean_kernel_time"] * count,
                "user": record["mean_user_time"] * count,
                "wait": record["mean_kernel_wait"] * count,
                "bytes": record["total_bytes"],
                "start": to_reference(node, record["window_start"]),
                "end": to_reference(node, record["window_end"]),
            })

    def _fold_summary(self, request_class, acc):
        """Fold one count-weighted accumulator into the pending rollup of
        ``request_class`` (``acc`` becomes that rollup when there is none)."""
        current = self._pending_classes.get(request_class)
        if current is None:
            self._pending_classes[request_class] = acc
            return
        for name in ("count", "latency", "kernel", "user", "wait", "bytes"):
            current[name] += acc[name]
        current["start"] = min(current["start"], acc["start"])
        current["end"] = max(current["end"], acc["end"])

    # -- upward forwarding ----------------------------------------------

    def _forwarder(self, ctx):
        while True:
            yield from ctx.sleep(self.forward_interval)
            if self._stopped:
                break
            yield from self._forward_up(ctx)

    def _forward_up(self, ctx):
        costs = self.node.kernel.costs
        zone_node = self.zone_node
        # Detach the pending windows but keep them at hand: a failed or
        # abandoned upward publish re-merges them into the (possibly
        # already refilling) next interval instead of dropping them.
        pending_sketches = self._pending_sketches
        self._pending_sketches = {}
        sketch_rows = []
        for key in sorted(pending_sketches):
            sketch, start, end = pending_sketches[key]
            request_class, metric = key
            sketch_rows.append(
                sketch.to_row(zone_node, request_class, metric, start, end)
            )
        pending_classes = self._pending_classes
        self._pending_classes = {}
        summary_rows = []
        for request_class in sorted(pending_classes):
            acc = pending_classes[request_class]
            count = acc["count"]
            if not count:
                continue
            summary_rows.append((
                zone_node, request_class, acc["start"], acc["end"], count,
                acc["latency"] / count, acc["kernel"] / count,
                acc["user"] / count, acc["wait"] / count, acc["bytes"],
            ))
        self._evict_stale_members(ctx.now)
        stats_rows = []
        if self._member_last:
            # One zone-health heartbeat: newest member timestamp
            # (reference timescale), resource fields summed across the
            # zone.  Kept across windows so quiet zones still report —
            # the parent's staleness detector watches the *zone*, the
            # zone's own detector watches members.
            newest = 0.0
            busy = user = kernel = 0.0
            run_queue = ctx_switches = backlog = pending = 0
            for node in self._member_last:
                record = self.node_stats[node][-1]
                newest = max(newest, self.to_reference(node, record["ts"]))
                busy += record["cpu_busy"]
                user += record["cpu_user"]
                kernel += record["cpu_kernel"]
                run_queue += record["run_queue"]
                ctx_switches += record["ctx_switches"]
                backlog += record["rx_backlog_bytes"]
                pending += record["pending_interactions"]
            stats_rows.append((zone_node, newest, busy, user, kernel,
                               run_queue, ctx_switches, backlog, pending))
        # The heartbeat needs no retention: _member_last is not consumed
        # by a forward, so the next interval re-reports the zone anyway.
        for fmt_spec, rows, retained in (
                (SKETCH_FORMAT, sketch_rows, pending_sketches),
                (CLASS_SUMMARY_FORMAT, summary_rows, pending_classes),
                (NODE_STATS_FORMAT, stats_rows, None)):
            if not rows:
                continue
            fmt = self.out_registry.register(*fmt_spec)
            count = len(rows)
            yield from ctx.compute(
                costs.frame_encode_base + costs.record_encode * count
            )
            blob = encoding.encode_frame(fmt, rows)
            delivered = yield from self.publisher.publish(
                ctx, fmt, blob, "sysprof-frame"
            )
            if delivered:
                self.rows_forwarded += count
            elif self.hub.subscribers(self.publisher.channel_prefix + fmt.name):
                # A parent exists but the window never reached it (dead
                # peer, backoff window, abandoned endpoint): keep the
                # rollup for the next interval.  With no subscriber at
                # all nothing downstream wants the rows — drop them as
                # before so pending state cannot grow without bound.
                self.forward_failures += 1
                if retained is not None:
                    self._retain(fmt.name, retained)
        self.forwards += 1

    def _evict_stale_members(self, now_ref):
        """Satellite of the heartbeat sum: a crashed member's final
        nodestats must not inflate the summed zone-health fields forever.
        Members quiet past the stale threshold leave the heartbeat (the
        zone's own ``stale_nodes()`` already flagged them)."""
        for node in list(self._member_last):
            age = self.staleness(node, now_ref)
            if age is None or age > self.stale_threshold:
                del self._member_last[node]

    def _retain(self, format_name, retained):
        """Re-fold an undelivered condensation window into the pending
        state (which may already hold rows ingested mid-publish)."""
        if format_name == "sysprof.sketch":
            for key, (sketch, start, end) in retained.items():
                self._fold_sketch(key, sketch, start, end)
        else:
            for request_class, acc in retained.items():
                self._fold_summary(request_class, acc)

    # -- reporting -------------------------------------------------------

    def stats(self):
        result = super().stats()
        result["sketch_merges"] = self.sketch_merges
        result["forwards"] = self.forwards
        result["rows_forwarded"] = self.rows_forwarded
        result["forward_failures"] = self.forward_failures
        result.update(self.publisher.stats())
        return result


class FederationTree:
    """Registry of a SysProf installation's zone GPAs.

    Also the adoption ledger for reparenting: while a member (or child
    zone pseudo-node) is failed over, :attr:`adopted` maps it to the
    zone currently covering for its parent (``None`` = the root).  The
    ledger keeps staleness and blame descent on the rewired path, and
    releases the adopter's per-member state on return so nothing is
    double-counted.
    """

    def __init__(self):
        self.zones = {}  # zone name -> ZoneGpa, parents before children
        self.root_gpa = None  # set by SysProf.install when a root exists
        self.adopted = {}  # member/pseudo-node -> adopting zone (None=root)

    def add(self, zone_gpa):
        if zone_gpa.zone in self.zones:
            raise ValueError("duplicate zone name: {}".format(zone_gpa.zone))
        self.zones[zone_gpa.zone] = zone_gpa
        return zone_gpa

    # -- reparenting ledger ---------------------------------------------

    def _adopter_tier(self, zone):
        return self.zones.get(zone) if zone is not None else self.root_gpa

    def note_adopted(self, member, zone):
        """``member`` now publishes to ``zone`` (None = the root prefix)."""
        if member in self.adopted and self.adopted[member] != zone:
            # Escalation: the previous adopter (a dead standby) must not
            # keep the member's last rows in its heartbeat sums.
            previous = self._adopter_tier(self.adopted[member])
            if previous is not None:
                previous.release_member(member)
        self.adopted[member] = zone

    def note_returned(self, member):
        """``member`` is back on its primary parent; scrub the adopter."""
        if member not in self.adopted:
            return
        zone = self.adopted.pop(member)
        tier = self._adopter_tier(zone)
        if tier is not None:
            tier.release_member(member)

    def adopted_members(self, zone):
        """Members currently publishing into ``zone`` as their standby."""
        return sorted(m for m, z in self.adopted.items() if z == zone)

    def root_adopted(self):
        """Members currently escalated straight to the root prefix."""
        return sorted(m for m, z in self.adopted.items() if z is None)

    def zone(self, name):
        return self.zones[name]

    def all_zones(self):
        return list(self.zones.values())

    def top_level(self):
        """Zones forwarding straight to the root (``sysprof/`` prefix)."""
        return [z for z in self.zones.values() if z.parent_prefix == ROOT_PREFIX]

    def root_candidates(self):
        """Pseudo-node names the root tier sees for its direct children."""
        return [z.zone_node for z in self.top_level()]

    def locate_member(self, node_name):
        """The zone GPA that ingests ``node_name``'s own rows: the zone
        whose members include it or, for a zone pseudo-node
        ``zone:<name>``, the zone whose children include ``<name>``
        (None when the root ingests them)."""
        if node_name.startswith(ZONE_NODE_PREFIX):
            child = node_name[len(ZONE_NODE_PREFIX):]
            for zone_gpa in self.zones.values():
                if child in zone_gpa.children:
                    return zone_gpa
            return None
        for zone_gpa in self.zones.values():
            if node_name in zone_gpa.members:
                return zone_gpa
        return None

    def start(self):
        for zone_gpa in self.zones.values():
            zone_gpa.start()

    def stop(self):
        for zone_gpa in self.zones.values():
            zone_gpa.stop()
