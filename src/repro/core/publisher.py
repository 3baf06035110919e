"""Channel publication machinery shared by daemons and zone GPAs.

:class:`ChannelPublisher` owns everything about getting an encoded blob
to a channel's subscribers: endpoint sockets, per-endpoint exponential
backoff with deterministic jitter, the socket-identity format-descriptor
handshake, and the publish counters.  It was extracted verbatim from
:class:`~repro.core.daemon.DisseminationDaemon` so that federation-tier
publishers (``ZoneGpa`` forwarding condensed frames upward) reuse the
exact reconnect/backoff semantics the failure-injection tests pin down.

The jitter RNG is a named substream created lazily and drawn ONLY on
failures, so fault-free runs never touch it (same-seed digests
unchanged).
"""

from repro.observability import tracer as _trace

#: Reconnect pacing toward a dead or unreachable subscriber.  After its
#: n-th consecutive failure an endpoint waits
#: ``min(CAP, BASE * 2**(n-1)) * (1 + JITTER * u)`` seconds, ``u`` drawn
#: from the publisher's seeded substream, before the next connect; past
#: ``RECONNECT_MAX_RETRIES`` failures it is abandoned until revived.
RECONNECT_BACKOFF_BASE = 0.05
RECONNECT_BACKOFF_CAP = 2.0
RECONNECT_BACKOFF_JITTER = 0.25
RECONNECT_MAX_RETRIES = 12


class _EndpointBackoff:
    """Retry state for one unreachable subscriber endpoint."""

    __slots__ = ("failures", "next_attempt_at", "abandoned")

    def __init__(self):
        self.failures = 0
        self.next_attempt_at = 0.0
        self.abandoned = False


class ChannelPublisher:
    """Publishes encoded frames to every subscriber of a channel."""

    def __init__(self, node, hub, channel_prefix="sysprof/", rng_label=None,
                 pid_fn=None):
        self.node = node
        self.hub = hub
        self.channel_prefix = channel_prefix
        self._rng_label = rng_label or "sysprofd.backoff.{}".format(node.name)
        self._pid_fn = pid_fn  # task pid for trace events, when tracing
        # Optional ParentLink (federation reparenting): notified on every
        # send outcome and given a chance to probe/fail-over at the top
        # of each publish cycle.  None for flat installs.
        self.parent_link = None
        self._sockets = {}  # (node_name, port) -> socket
        # endpoint -> (socket, {format names sent on that socket}).  Keyed
        # by socket *identity*: a reconnected endpoint gets a fresh set,
        # so the new peer connection re-learns every format descriptor.
        self._formats_sent = {}
        self._backoff = {}  # endpoint -> _EndpointBackoff
        self._backoff_rng = None
        self._connected_before = set()  # endpoints that connected at least once
        self.bytes_published = 0
        self.publishes = 0
        self.frames_published = 0
        self.format_sends = 0
        self.send_errors = 0
        self.connect_attempts = 0
        self.reconnects = 0
        self.backoff_skips = 0
        self.endpoints_abandoned = 0

    # ------------------------------------------------------------------

    def reset_endpoint(self, endpoint):
        """Forget a subscriber's socket (peer restart / connection loss).

        The next publish reconnects; the socket-identity check in
        :meth:`ensure_format_sent` then re-sends every format descriptor
        on the fresh connection.  The per-endpoint format set is purged
        here too — a stale ``(dead socket, formats)`` tuple must not
        linger in ``_formats_sent``.
        """
        self._sockets.pop(endpoint, None)
        self._formats_sent.pop(endpoint, None)

    def revive_endpoint(self, endpoint):
        """Clear an endpoint's backoff/abandoned state (subscriber is back)."""
        self._backoff.pop(endpoint, None)

    def forget_all(self):
        """Process death: reset live sockets, drop all per-endpoint state.

        A fresh process has no memory of past failures: abandoned
        endpoints get a clean retry budget.  Counters stay cumulative.
        """
        for sock in self._sockets.values():
            if sock is not None:
                sock.reset()
        self._sockets.clear()
        self._formats_sent.clear()
        self._backoff.clear()

    # ------------------------------------------------------------------

    def publish(self, ctx, fmt, blob, kind, text=False):
        """Send ``blob`` to every subscriber of ``channel_prefix + fmt.name``.

        Returns the number of subscribers the blob actually reached, so
        callers with retained state (zone rollups) can tell a delivered
        window from a dropped one.
        """
        link = self.parent_link
        if link is not None:
            # Zero-yield on the healthy path: lease check + (only while
            # failed over) the paced return probe toward the primary.
            yield from link.check(ctx)
        start_prefix = self.channel_prefix
        channel = start_prefix + fmt.name
        delivered = 0
        for endpoint in self.hub.subscribers(channel):
            if self.channel_prefix != start_prefix:
                # The parent link reparented mid-publish; the remaining
                # endpoints belong to the abandoned parent's channel.
                break
            sock = yield from self._endpoint_socket(ctx, endpoint)
            if sock is None:
                continue
            try:
                if not text:
                    yield from self.ensure_format_sent(ctx, sock, endpoint, fmt)
                yield from ctx.send_message(
                    sock, len(blob), kind=kind,
                    meta={"blob": blob, "channel": channel, "text": text},
                )
            except Exception:
                # Peer gone mid-publish: drop the socket so a later
                # wakeup reconnects (and re-sends descriptors), but only
                # after the endpoint's backoff window passes.
                self.send_errors += 1
                self.reset_endpoint(endpoint)
                yield from ctx.kcompute(self.node.kernel.costs.daemon_reconnect)
                self.note_endpoint_failure(endpoint)
                continue
            delivered += 1
            if link is not None:
                link.note_success(ctx.now)
            self.bytes_published += len(blob)
            self.publishes += 1
            if kind == "sysprof-frame":
                self.frames_published += 1
            if _trace.enabled:
                _trace.active().publish(
                    self.node.kernel.name,
                    self._pid_fn() if self._pid_fn else 0,
                    channel, len(blob), kind, ctx.now,
                )
        return delivered

    def ensure_format_sent(self, ctx, sock, endpoint, fmt):
        sent = self._formats_sent.get(endpoint)
        if sent is None or sent[0] is not sock:
            # New or replaced connection: the peer's decoder state died
            # with the old socket, so start a fresh descriptor set.
            sent = (sock, set())
            self._formats_sent[endpoint] = sent
        if fmt.name in sent[1]:
            return
        descriptor = fmt.describe()
        yield from ctx.send_message(
            sock, len(descriptor), kind="sysprof-fmt", meta={"blob": descriptor},
        )
        sent[1].add(fmt.name)
        self.format_sends += 1

    def _endpoint_socket(self, ctx, endpoint):
        sock = self._sockets.get(endpoint)
        if sock is not None:
            return sock
        costs = self.node.kernel.costs
        state = self._backoff.get(endpoint)
        if state is not None:
            if state.abandoned:
                return None
            # Cheap clock probe: is this endpoint's window open yet?
            yield from ctx.kcompute(costs.daemon_backoff_probe)
            if ctx.now < state.next_attempt_at:
                self.backoff_skips += 1
                return None
        node_name, port = endpoint
        self.connect_attempts += 1
        try:
            sock = yield from ctx.connect(node_name, port)
        except Exception:
            yield from ctx.kcompute(costs.daemon_reconnect)
            self.note_endpoint_failure(endpoint)
            return None
        self._sockets[endpoint] = sock
        self._backoff.pop(endpoint, None)
        if endpoint in self._connected_before:
            self.reconnects += 1
        self._connected_before.add(endpoint)
        return sock

    def note_endpoint_failure(self, endpoint):
        """Advance an endpoint's backoff after a failed connect or send."""
        if self.parent_link is not None:
            self.parent_link.note_failure(self.node.sim.now)
        state = self._backoff.get(endpoint)
        if state is None:
            state = self._backoff[endpoint] = _EndpointBackoff()
        state.failures += 1
        if state.failures > RECONNECT_MAX_RETRIES:
            if not state.abandoned:
                state.abandoned = True
                self.endpoints_abandoned += 1
            return state
        delay = min(
            RECONNECT_BACKOFF_CAP,
            RECONNECT_BACKOFF_BASE * (2.0 ** (state.failures - 1)),
        )
        delay *= 1.0 + RECONNECT_BACKOFF_JITTER * self._jitter_rng().random()
        state.next_attempt_at = self.node.sim.now + delay
        return state

    def adopt_socket(self, endpoint, sock):
        """Install an externally-established connection (a parent-link
        return probe) as the live socket for ``endpoint``, with a clean
        backoff slate and a fresh format-descriptor set."""
        self.revive_endpoint(endpoint)
        self.reset_endpoint(endpoint)
        self._sockets[endpoint] = sock
        if endpoint in self._connected_before:
            self.reconnects += 1
        self._connected_before.add(endpoint)

    def _jitter_rng(self):
        """Lazy named substream — creating it only on the first failure
        keeps fault-free runs byte-identical to builds without it."""
        if self._backoff_rng is None:
            self._backoff_rng = self.node.cluster.streams.stream(self._rng_label)
        return self._backoff_rng

    # ------------------------------------------------------------------

    def stats(self):
        result = {
            "bytes_published": self.bytes_published,
            "publishes": self.publishes,
            "frames_published": self.frames_published,
            "format_sends": self.format_sends,
            "send_errors": self.send_errors,
            "connect_attempts": self.connect_attempts,
            "reconnects": self.reconnects,
            "backoff_skips": self.backoff_skips,
            "endpoints_abandoned": self.endpoints_abandoned,
        }
        if self.parent_link is not None:
            result["parent_link"] = self.parent_link.stats()
        return result
