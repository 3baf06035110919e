"""The syscall interface tasks program against.

Application code is written as generator functions receiving a
:class:`TaskContext`; every OS interaction is a ``yield from`` on one of
these methods.  Each syscall charges entry/exit CPU in kernel mode, fires
the corresponding Kprof tracepoints, and accounts blocked time — exactly
the observables the paper's monitoring extracts without modifying the
application.
"""

from repro.ossim.sockets import AppMessage
from repro.ossim.task import BAND_USER
from repro.ossim import tracepoints as tp
from repro.sim.errors import ConnectionReset, SimError

_ENTRY = (tp.SYSCALL_ENTRY,)
_EXIT = (tp.SYSCALL_EXIT,)
_DELIVER = (tp.SOCK_DELIVER,)


class TaskContext:
    """Handle through which a task computes, sleeps, and performs syscalls."""

    def __init__(self, kernel, task):
        self.kernel = kernel
        self.task = task
        self.sim = kernel.sim

    @property
    def now(self):
        return self.sim.now

    @property
    def pid(self):
        return self.task.pid

    def __repr__(self):
        return "<TaskContext {} on {}>".format(self.task.name, self.kernel.name)

    # ------------------------------------------------------------------
    # CPU and time
    # ------------------------------------------------------------------

    def compute(self, seconds):
        """Burn CPU in user mode (application work)."""
        yield self.kernel.cpu.submit(self.task, seconds, "user")

    def kcompute(self, seconds):
        """Burn CPU in kernel mode (kernel daemons, in-kernel services)."""
        yield self.kernel.cpu.submit(self.task, seconds, "kernel")

    def sleep(self, seconds):
        """Sleep off-CPU for ``seconds``."""
        yield from self.kernel.block_wait(
            self.task, self.sim.timeout(seconds), reason="sleep"
        )

    def wait(self, waitable, reason="wait"):
        """Block on an arbitrary waitable with blocked-time accounting."""
        value = yield from self.kernel.block_wait(self.task, waitable, reason=reason)
        return value

    def spawn(self, name, fn, *args, band=BAND_USER):
        """Spawn a sibling task on this node."""
        return self.kernel.spawn(name, fn, *args, band=band)

    # ------------------------------------------------------------------
    # syscall plumbing
    # ------------------------------------------------------------------

    def _sys_enter(self, name):
        kernel = self.kernel
        tracepoints = kernel.tracepoints
        cost, probe, analyzer, _ = tracepoints.site(_ENTRY)
        cost = kernel.costs.syscall_entry + cost
        attribution = None
        if kernel.ledger is not None:
            attribution = ("syscall", cost - probe - analyzer, probe, analyzer)
        yield kernel.cpu.submit(self.task, cost, "kernel", attribution=attribution)
        tracepoints.fire(tp.SYSCALL_ENTRY, pid=self.task.pid, call=name)

    def _sys_exit(self, name):
        kernel = self.kernel
        tracepoints = kernel.tracepoints
        cost, probe, analyzer, _ = tracepoints.site(_EXIT)
        cost = kernel.costs.syscall_exit + cost
        attribution = None
        if kernel.ledger is not None:
            attribution = ("syscall", cost - probe - analyzer, probe, analyzer)
        yield kernel.cpu.submit(self.task, cost, "kernel", attribution=attribution)
        tracepoints.fire(tp.SYSCALL_EXIT, pid=self.task.pid, call=name)

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------

    def listen(self, port):
        """Open a listening socket on ``port``."""
        yield from self._sys_enter("listen")
        lsock = self.kernel.listen(port)
        yield from self._sys_exit("listen")
        return lsock

    def accept(self, lsock):
        """Block until a connection arrives; returns the server-side socket."""
        yield from self._sys_enter("accept")
        sock = yield from self.kernel.block_wait(
            self.task, lsock.backlog.get(), reason="accept"
        )
        sock.owner_pid = self.task.pid
        yield from self._sys_exit("accept")
        return sock

    def connect(self, remote, port):
        """Connect to ``remote`` (a node name or IP) on ``port``."""
        yield from self._sys_enter("connect")
        remote_kernel = self.kernel.cluster.resolve(remote)
        # Simplified three-way handshake: one RTT, no data packets on the
        # wire (the monitor's message extraction uses data packets only).
        rtt = 2.0 * self.kernel.one_way_latency(remote_kernel)
        yield from self.kernel.block_wait(
            self.task, self.sim.timeout(rtt), reason="connect"
        )
        fabric = getattr(self.kernel.cluster, "fabric", None)
        if fabric is not None and not fabric.reachable(
            self.kernel.ip, remote_kernel.ip
        ):
            # SYN lost to an admin-down port or a partition: the caller
            # pays the handshake round-trip before the failure surfaces.
            yield from self._sys_exit("connect")
            raise SimError(
                "no route to host: {} -> {}".format(self.kernel.name, remote)
            )
        sock = self.kernel.open_connection(
            self.kernel.allocate_port(), remote_kernel, port
        )
        sock.owner_pid = self.task.pid
        yield from self._sys_exit("connect")
        return sock

    def send_message(self, sock, size, kind="data", meta=None, frame_batch=1):
        """Send an application message of ``size`` bytes; returns it."""
        if sock.remote is None:
            raise SimError("send on unconnected socket")
        if sock.reset_by_peer:
            raise ConnectionReset(
                "connection reset by peer: {}".format(sock)
            )
        message = AppMessage(size, kind=kind, meta=meta)
        sock.owner_pid = self.task.pid
        yield from self._sys_enter("send")
        # A free lock grants at once, and a triggered grant succeeded, so
        # only a pending grant costs a wait.
        grant = sock.tx_lock.acquire()
        if not grant.triggered:
            yield grant
        try:
            yield from self.kernel.netstack.tx_message(
                self.task, sock, message, frame_batch=frame_batch
            )
        finally:
            sock.tx_lock.release()
        yield from self._sys_exit("send")
        return message

    def recv_message(self, sock):
        """Block for the next complete message; ``None`` means peer closed."""
        sock.owner_pid = self.task.pid
        yield from self._sys_enter("recv")
        message = yield from self.kernel.block_wait(
            self.task, sock.rx_queue.get(), reason="recv"
        )
        return (yield from self._deliver(sock, message))

    def _deliver(self, sock, message):
        """Finish a ``recv`` whose ``message`` has arrived (``None`` on
        peer close): the copy cost and its attribution, the credit
        return, the SOCK_DELIVER event and the syscall exit.  The
        :class:`~repro.ossim.selector.Selector` finishes its socket
        receives here too."""
        if message is None:
            yield from self._sys_exit("recv")
            return None
        tracepoints = self.kernel.tracepoints
        cost, probe, analyzer, _ = tracepoints.site(_DELIVER)
        copy_cost = self.kernel.costs.sock_copy_per_byte * message.size + cost
        attribution = None
        if self.kernel.ledger is not None:
            attribution = ("netstack", copy_cost - probe - analyzer, probe, analyzer)
        yield self.kernel.cpu.submit(
            self.task, copy_cost, "kernel", attribution=attribution
        )
        sock.consume(message)
        deliver_fields = {
            "pid": self.task.pid,
            "src_ip": message.src.ip,
            "src_port": message.src.port,
            "dst_ip": message.dst.ip,
            "dst_port": message.dst.port,
            "size": message.size,
            "msg_kind": message.kind,
            "queued": message.delivered_at is not None
            and self.sim.now - message.delivered_at,
        }
        if message.meta is not None and message.meta.get("arm_id") is not None:
            deliver_fields["arm_id"] = message.meta["arm_id"]
        tracepoints.emit(tp.SOCK_DELIVER, None, deliver_fields)
        yield from self._sys_exit("recv")
        return message

    def close(self, sock):
        """Close a connected socket (peer's next recv returns ``None``).

        The FIN travels through the normal transmit path so EOF is ordered
        behind all in-flight data.
        """
        yield from self._sys_enter("close")
        if sock.state != "closed" and sock.remote is not None:
            fin = AppMessage(0, kind="_fin")
            yield from self.kernel.netstack.tx_message(self.task, sock, fin)
            sock.state = "closed"
        self.kernel.release_socket(sock)
        yield from self._sys_exit("close")

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def _vfs(self):
        if self.kernel.vfs is None:
            raise SimError("node {} has no disk/vfs".format(self.kernel.name))
        return self.kernel.vfs

    def open(self, path, create=True):
        yield from self._sys_enter("open")
        handle = yield from self._vfs().open(self.task, path, create=create)
        yield from self._sys_exit("open")
        return handle

    def read(self, handle, nbytes, offset=None):
        yield from self._sys_enter("read")
        count = yield from self._vfs().read(self.task, handle, nbytes, offset=offset)
        yield from self._sys_exit("read")
        return count

    def write(self, handle, nbytes, offset=None, sync=False):
        yield from self._sys_enter("write")
        count = yield from self._vfs().write(
            self.task, handle, nbytes, offset=offset, sync=sync
        )
        yield from self._sys_exit("write")
        return count

    def fsync(self, handle):
        yield from self._sys_enter("fsync")
        pages = yield from self._vfs().fsync(self.task, handle)
        yield from self._sys_exit("fsync")
        return pages

    def close_file(self, handle):
        yield from self._sys_enter("close")
        yield from self._vfs().close(self.task, handle)
        yield from self._sys_exit("close")

    # ------------------------------------------------------------------

    def proc_read(self, path):
        """Read a /proc entry on this node (no CPU charge; test/diag use)."""
        return self.kernel.procfs.read(path)
