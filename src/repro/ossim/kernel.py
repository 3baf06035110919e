"""The per-node kernel: CPU, tasks, sockets, network stack, VFS, /proc."""

from repro.netsim.packet import Address
from repro.ossim.blockio import Disk
from repro.ossim.cpu import Cpu, CpuSet
from repro.ossim.netstack import NetStack
from repro.ossim.procfs import ProcFs
from repro.ossim.sockets import (
    SOCK_CLOSED,
    ByteCredits,
    ListeningSocket,
    Socket,
)
from repro.ossim.task import BAND_USER, TASK_EXITED, Task
from repro.ossim.tracepoints import NULL_TRACEPOINTS
from repro.ossim import tracepoints as tp
from repro.ossim.vfs import Vfs
from repro.observability import ledger as cpu_ledger
from repro.sim.errors import ConnectionReset, Interrupt, SimError


class IdentityClock:
    """Clock for nodes without configured skew (local time == sim time)."""

    offset = 0.0
    drift = 0.0

    @staticmethod
    def local_time(sim_now):
        return sim_now

    @staticmethod
    def sim_time(local):
        return local


class Kernel:
    """One node's operating system instance."""

    def __init__(self, sim, name, costs, clock=None, tracepoints=None, cpus=1):
        self.sim = sim
        self.name = name
        self.costs = costs
        self.clock = clock or IdentityClock()
        self.tracepoints = tracepoints or NULL_TRACEPOINTS
        # Observability: the process-wide attribution ledger, if one is
        # installed (see repro.observability.ledger).  Read once here so
        # the CPU hot path pays a single attribute load per slice.
        self.ledger = cpu_ledger.active()
        if self.ledger is not None:
            self.ledger.attach_kernel(self)
        # A single core keeps the uniprocessor fast path; CpuSet adds SMP.
        self.cpu = Cpu(sim, self, costs) if cpus == 1 else CpuSet(sim, self, costs, cpus)
        self.cpu_count = cpus
        self.nic = None
        self.netstack = None
        self.disk = None
        self.vfs = None
        self.procfs = ProcFs()
        self.cluster = None
        self.tasks = {}
        self._next_pid = 100
        self._next_port = 40000
        self._listeners = {}  # port -> ListeningSocket
        self._sockets = {}  # (local_port, remote Address tuple) -> Socket
        self.procfs.register("/proc/stat", self._proc_stat)

    def __repr__(self):
        return "<Kernel {}>".format(self.name)

    # ------------------------------------------------------------------
    # hardware attachment
    # ------------------------------------------------------------------

    def attach_nic(self, nic):
        self.nic = nic
        self.netstack = NetStack(self, nic, self.costs)
        return nic

    def attach_disk(self, name="sda", cache_pages=8192):
        self.disk = Disk(self.sim, self, self.costs, name=name)
        self.vfs = Vfs(self, self.disk, self.costs, cache_pages=cache_pages)
        return self.disk

    def set_tracepoints(self, tracepoints):
        """Install a monitoring implementation (SysProf's Kprof)."""
        self.tracepoints = tracepoints

    @property
    def ip(self):
        if self.nic is None:
            raise SimError("kernel {} has no NIC".format(self.name))
        return self.nic.ip

    # ------------------------------------------------------------------
    # tasks
    # ------------------------------------------------------------------

    def spawn(self, name, fn, *args, band=BAND_USER, labels=None, affinity=None):
        """Start ``fn(ctx, *args)`` as a task; returns the :class:`Task`.

        ``fn`` must be a generator function taking a
        :class:`~repro.ossim.taskctx.TaskContext` first.  ``affinity``
        pins the task to one CPU core (SMP nodes only).
        """
        from repro.ossim.taskctx import TaskContext

        pid = self._next_pid
        self._next_pid += 1
        task = Task(pid, name, self, band=band)
        if affinity is not None:
            if not 0 <= affinity < self.cpu_count:
                raise SimError(
                    "affinity {} out of range for {} CPUs".format(
                        affinity, self.cpu_count
                    )
                )
            task.affinity = affinity
        if labels:
            task.labels.update(labels)
        self.tasks[pid] = task
        ctx = TaskContext(self, task)
        task.proc = self.sim.process(
            self._task_body(task, fn(ctx, *args)), name="{}@{}".format(name, self.name)
        )
        self.tracepoints.fire(tp.TASK_CREATE, pid=pid, name=name)
        return task

    def _task_body(self, task, gen):
        try:
            result = yield from gen
            task.exit_value = result
        except Interrupt as interrupt:
            # Killed (crash injection, signal): the task dies quietly.
            task.exit_value = ("killed", interrupt.cause)
        except ConnectionReset as error:
            # Unhandled ECONNRESET kills the task, not the simulation —
            # the real process would die on the uncaught error too.
            task.exit_value = ("connection-reset", str(error))
        finally:
            task.state = TASK_EXITED
            task.exited_at = self.sim.now
            if task.blocked_since is not None:
                task.blocked_time += self.sim.now - task.blocked_since
                task.blocked_since = None
            self.tracepoints.fire(tp.TASK_EXIT, pid=task.pid, name=task.name)
        return task.exit_value

    def block_wait(self, task, waitable, reason="io"):
        """Generator: wait on ``waitable`` while accounting blocked time.

        A waitable that already triggered hands over its value, or raises
        its exception, at once: the task never blocks on it."""
        if waitable.triggered:
            if waitable.ok:
                return waitable.value
            raise waitable.value
        self.tracepoints.fire(tp.SCHED_BLOCK, pid=task.pid, reason=reason)
        task.mark_blocked(self.sim.now, reason)
        try:
            value = yield waitable
        finally:
            task.mark_ready(self.sim.now)
            self.tracepoints.fire(tp.SCHED_WAKEUP, pid=task.pid, reason=reason)
        return value

    # ------------------------------------------------------------------
    # socket management (called from TaskContext syscalls)
    # ------------------------------------------------------------------

    def allocate_port(self):
        port = self._next_port
        self._next_port += 1
        return port

    def listen(self, port):
        if port in self._listeners:
            raise SimError("port {} already listening on {}".format(port, self.name))
        lsock = ListeningSocket(self, Address(self.ip, port))
        self._listeners[port] = lsock
        return lsock

    def open_connection(self, local_port, remote_kernel, remote_port):
        """Create the two connected sockets (client side of the handshake)."""
        listener = remote_kernel._listeners.get(remote_port)
        if listener is None:
            raise SimError(
                "connection refused: {}:{}".format(remote_kernel.name, remote_port)
            )
        local = Address(self.ip, local_port)
        remote = Address(remote_kernel.ip, remote_port)
        client = Socket(self, local, self.costs.sock_buffer_bytes)
        server = Socket(remote_kernel, remote, remote_kernel.costs.sock_buffer_bytes)
        client.remote, server.remote = remote, local
        client.peer, server.peer = server, client
        one_way = self.one_way_latency(remote_kernel)
        client.ack_delay = server.ack_delay = one_way
        client.tx_credits = ByteCredits(self.sim, server.rx_capacity)
        server.tx_credits = ByteCredits(self.sim, client.rx_capacity)
        self._sockets[(local_port, tuple(remote))] = client
        remote_kernel._sockets[(remote_port, tuple(local))] = server
        listener.backlog.put(server)
        listener.accepted += 1
        return client

    def demux(self, local_port, remote_addr):
        """Find the established socket a packet belongs to."""
        sock = self._sockets.get((local_port, tuple(remote_addr)))
        if sock is not None and sock.state != SOCK_CLOSED:
            return sock
        return None

    def release_socket(self, sock):
        self._sockets.pop((sock.local.port, tuple(sock.remote)), None)

    def close_listener(self, port):
        """Tear down a listening socket (owner died); resets its backlog."""
        lsock = self._listeners.pop(port, None)
        if lsock is None:
            return
        lsock.state = SOCK_CLOSED
        while True:
            ok, sock = lsock.backlog.try_get()
            if not ok:
                break
            if sock is not None:
                sock.reset()

    def crash(self, reason="crash"):
        """Hard-stop the node: every task dies, every connection resets.

        Models a power failure — nothing gets to run a cleanup path, and
        peers observe resets (after one-way latency) rather than FINs.
        """
        for task in list(self.tasks.values()):
            if task.state != TASK_EXITED:
                task.kill(reason)
        for sock in list(self._sockets.values()):
            sock.reset()
        for port in list(self._listeners):
            self.close_listener(port)
        self._sockets.clear()

    def one_way_latency(self, remote_kernel):
        if self.cluster is not None:
            return self.cluster.one_way_latency(self.ip, remote_kernel.ip)
        return 50e-6

    # ------------------------------------------------------------------

    def _proc_stat(self):
        lines = [
            "cpu busy={:.6f} user={:.6f} kernel={:.6f} ctx={:.6f} switches={}".format(
                self.cpu.busy_time,
                self.cpu.mode_time["user"],
                self.cpu.mode_time["kernel"],
                self.cpu.mode_time["ctx"],
                self.cpu.ctx_switch_count,
            )
        ]
        now = self.sim.now
        for pid in sorted(self.tasks):
            lines.append(self.tasks[pid].stat_line(now))
        return "\n".join(lines) + "\n"

    def task_snapshot(self):
        """Machine-readable task accounting snapshot (pid -> counters)."""
        now = self.sim.now
        snapshot = {}
        for pid, task in self.tasks.items():
            blocked = task.blocked_time
            if task.blocked_since is not None:
                blocked += now - task.blocked_since
            snapshot[pid] = {
                "name": task.name,
                "state": task.state,
                "utime": task.utime,
                "stime": task.stime,
                "blocked": blocked,
                "ctx_switches": task.ctx_switches,
            }
        return snapshot
