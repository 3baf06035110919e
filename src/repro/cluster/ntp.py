"""NTP-style clock synchronization over the simulated network.

Runs a real two-way exchange through the socket stack (so sync accuracy
degrades with network load, as in life).  The classic offset estimator is
used: for client send/receive local times ``t0``/``t3`` and server
receive/reply local times ``T1``/``T2``,

    theta = ((T1 - t0) + (T2 - t3)) / 2

estimates how far the server's clock runs ahead of the client's.
"""

import warnings

from repro.sim.errors import SimError

NTP_PORT = 123
_PROBE_BYTES = 90  # NTPv4 packet size


class NtpSyncTimeout(SimError):
    """A sync pass hit its deadline before measuring every target.

    The ``table`` attribute carries the partial :class:`ClockTable`
    (``table.missing`` lists the unmeasured nodes) so callers that can
    live with a partial view may catch and keep it.
    """

    def __init__(self, message, table):
        super().__init__(message)
        self.table = table


class NtpSync:
    """Measure clock offsets of all nodes relative to a reference node."""

    def __init__(self, cluster, reference_name, rounds=4):
        self.cluster = cluster
        self.reference_name = reference_name
        self.rounds = rounds
        self._servers = []

    def start_servers(self):
        """Start an ntpd responder task on every non-reference node."""
        for name, node in self.cluster.nodes.items():
            if name == self.reference_name:
                continue
            self._servers.append(node.spawn("ntpd", self._ntpd))

    def _ntpd(self, ctx):
        # Accept loop only; each connection gets its own handler task so
        # concurrent sync clients are served in parallel (the old nested
        # recv loop made a second client wait for the first to hang up).
        lsock = yield from ctx.listen(NTP_PORT)
        while True:
            sock = yield from ctx.accept(lsock)
            ctx.spawn("ntpd-conn", self._ntpd_conn, sock)

    def _ntpd_conn(self, ctx, sock):
        while True:
            request = yield from ctx.recv_message(sock)
            if request is None:
                break
            receive_ts = ctx.kernel.clock.local_time(ctx.now)
            # Trivial server-side processing before the reply is formed.
            yield from ctx.compute(2e-6)
            transmit_ts = ctx.kernel.clock.local_time(ctx.now)
            yield from ctx.send_message(
                sock,
                _PROBE_BYTES,
                kind="ntp-reply",
                meta={"t1": receive_ts, "t2": transmit_ts},
            )

    def measure(self, clock_table):
        """Spawn the measurement task on the reference node.

        Offsets land in ``clock_table`` as exchanges complete; run the
        simulator until the returned task finishes.
        """
        reference = self.cluster.node(self.reference_name)
        targets = [n for n in self.cluster.nodes if n != self.reference_name]
        return reference.spawn("ntp-sync", self._client, targets, clock_table)

    def _client(self, ctx, targets, clock_table):
        clock = ctx.kernel.clock
        for target in targets:
            sock = yield from ctx.connect(target, NTP_PORT)
            thetas = []
            for _ in range(self.rounds):
                t0 = clock.local_time(ctx.now)
                yield from ctx.send_message(sock, _PROBE_BYTES, kind="ntp-request")
                reply = yield from ctx.recv_message(sock)
                t3 = clock.local_time(ctx.now)
                t1 = reply.meta["t1"]
                t2 = reply.meta["t2"]
                thetas.append(((t1 - t0) + (t2 - t3)) / 2.0)
            yield from ctx.close(sock)
            # Median is robust to one queue-delayed exchange.
            thetas.sort()
            mid = len(thetas) // 2
            if len(thetas) % 2:
                estimate = thetas[mid]
            else:
                estimate = 0.5 * (thetas[mid - 1] + thetas[mid])
            clock_table.set_offset(target, estimate)
        return clock_table


def synchronize(cluster, reference_name, rounds=4, deadline=5.0, strict=True):
    """Convenience: run a full sync pass and return the :class:`ClockTable`.

    Must be called while the simulation is otherwise quiet (e.g. before
    the workload starts); advances simulated time.

    If the deadline expires (or the exchange wedges, e.g. a target behind
    a partition) before every target is measured, ``strict=True`` raises
    :class:`NtpSyncTimeout`; ``strict=False`` warns and returns the
    partial table with ``table.partial`` set and ``table.missing``
    naming the unmeasured nodes — previously the partial table came back
    silently, indistinguishable from a complete one.
    """
    from repro.cluster.clock import ClockTable

    table = ClockTable(reference_name)
    sync = NtpSync(cluster, reference_name, rounds=rounds)
    sync.start_servers()
    task = sync.measure(table)
    try:
        cluster.sim.run_until_triggered(task.proc, limit=cluster.sim.now + deadline)
    except SimError:
        task.kill("ntp-deadline")
        targets = [n for n in cluster.nodes if n != reference_name]
        missing = tuple(n for n in targets if not table.known(n))
        table.partial = bool(missing)
        table.missing = missing
        if missing:
            message = "ntp sync deadline ({}s) expired with {} unmeasured".format(
                deadline, ", ".join(missing)
            )
            if strict:
                raise NtpSyncTimeout(message, table) from None
            warnings.warn(message, stacklevel=2)
    return table
