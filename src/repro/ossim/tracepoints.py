"""Static kernel instrumentation points.

The simulated kernel is instrumented the way the paper patched Linux
2.4.19: a fixed set of named tracepoints in the scheduler, syscall layer,
network stack, and filesystem.  The kernel fires them through the
:class:`Tracepoints` interface; the SysProf toolkit (:mod:`repro.core.kprof`)
provides the real implementation, and :class:`NullTracepoints` is the
unpatched-kernel stand-in.

Cost discipline: a code path about to fire events *first* asks
:meth:`Tracepoints.site` for its tuple of event types, which answers the
CPU overhead of the enabled probes (and their subscribed analyzer
callbacks), that overhead's probe/analyzer split for the attribution
ledger, and which of the types are enabled.  The path charges the
overhead to the simulated CPU as part of its own work, then calls
:meth:`Tracepoints.emit` (or its keyword form :meth:`Tracepoints.fire`)
for the enabled types.  This is what makes
monitoring perturbation an emergent property of the simulation rather
than a constant typed into the results.
"""

# Scheduling events
SCHED_SWITCH = "sched.switch"
SCHED_WAKEUP = "sched.wakeup"
SCHED_BLOCK = "sched.block"
TASK_CREATE = "task.create"
TASK_EXIT = "task.exit"

# System call events
SYSCALL_ENTRY = "syscall.entry"
SYSCALL_EXIT = "syscall.exit"

# Network events (transmit and receive, one per protocol layer)
NET_TX_SOCK = "net.tx.sock"
NET_TX_IP = "net.tx.ip"
NET_TX_DRIVER = "net.tx.driver"
NET_RX_DRIVER = "net.rx.driver"
NET_RX_IP = "net.rx.ip"
NET_RX_TRANSPORT = "net.rx.transport"
SOCK_ENQUEUE = "sock.enqueue"
SOCK_DELIVER = "sock.deliver"

# Filesystem events
FS_OPEN = "fs.open"
FS_READ = "fs.read"
FS_WRITE = "fs.write"
FS_FSYNC = "fs.fsync"
FS_CLOSE = "fs.close"

# Block layer events
BLK_ISSUE = "blk.issue"
BLK_COMPLETE = "blk.complete"

ALL_EVENT_TYPES = (
    SCHED_SWITCH, SCHED_WAKEUP, SCHED_BLOCK, TASK_CREATE, TASK_EXIT,
    SYSCALL_ENTRY, SYSCALL_EXIT,
    NET_TX_SOCK, NET_TX_IP, NET_TX_DRIVER,
    NET_RX_DRIVER, NET_RX_IP, NET_RX_TRANSPORT,
    SOCK_ENQUEUE, SOCK_DELIVER,
    FS_OPEN, FS_READ, FS_WRITE, FS_FSYNC, FS_CLOSE,
    BLK_ISSUE, BLK_COMPLETE,
)

SCHEDULING_EVENTS = frozenset(
    (SCHED_SWITCH, SCHED_WAKEUP, SCHED_BLOCK, TASK_CREATE, TASK_EXIT)
)
SYSCALL_EVENTS = frozenset((SYSCALL_ENTRY, SYSCALL_EXIT))
NETWORK_EVENTS = frozenset(
    (NET_TX_SOCK, NET_TX_IP, NET_TX_DRIVER,
     NET_RX_DRIVER, NET_RX_IP, NET_RX_TRANSPORT, SOCK_ENQUEUE, SOCK_DELIVER)
)
FILESYSTEM_EVENTS = frozenset((FS_OPEN, FS_READ, FS_WRITE, FS_FSYNC, FS_CLOSE))
BLOCK_EVENTS = frozenset((BLK_ISSUE, BLK_COMPLETE))

EVENT_CLASSES = {
    "scheduling": SCHEDULING_EVENTS,
    "syscall": SYSCALL_EVENTS,
    "network": NETWORK_EVENTS,
    "filesystem": FILESYSTEM_EVENTS,
    "block": BLOCK_EVENTS,
}


#: What every site answers with all probes compiled out.
_OFF_SITE = (0.0, 0.0, 0.0, ())


class Tracepoints:
    """Interface the simulated kernel fires events through."""

    def enabled(self, etype):
        """True when at least one subscriber wants ``etype``."""
        return False

    def cost(self, etype):
        """Simulated CPU seconds one firing of ``etype`` will consume."""
        return 0.0

    def site(self, etypes):
        """Everything a probe site firing ``etypes`` (a tuple) needs, as
        ``(cost, probe, analyzer, enabled)``.

        ``cost`` is the summed :meth:`cost` of the types; ``probe`` and
        ``analyzer`` split it for the attribution ledger
        (:mod:`repro.observability.ledger`) into the fixed event-emission
        cost and the subscribed callbacks' declared cost; ``enabled`` is
        the tuple of the types with a subscriber, in ``etypes`` order.
        Every sum runs left to right from ``0.0``.  The answer changes
        only when the subscriptions do, so implementations may cache it.
        """
        return _OFF_SITE

    def emit(self, etype, sim_ts, fields):
        """Emit one event with payload dict ``fields``, which may be shared
        by several events and is never copied.  ``sim_ts`` (or ``None``
        for now) is the simulated time the event is stamped with, for
        callers that backfill precise per-layer times."""

    def fire(self, etype, sim_ts=None, **fields):
        """Keyword form of :meth:`emit`."""


class NullTracepoints(Tracepoints):
    """The unpatched kernel: all probes compiled out, zero cost."""

    __slots__ = ()


NULL_TRACEPOINTS = NullTracepoints()
