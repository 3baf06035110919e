"""Block layer: a request queue in front of a seek-accurate disk."""

from repro.sim.engine import Waitable
from repro.sim.resources import Store
from repro.sim.stats import RunningStat, TimeWeightedStat
from repro.ossim import tracepoints as tp


class DiskRequest:
    __slots__ = ("kind", "offset", "nbytes", "done", "submitted_at")

    def __init__(self, kind, offset, nbytes, done, submitted_at):
        self.kind = kind
        self.offset = offset
        self.nbytes = nbytes
        self.done = done
        self.submitted_at = submitted_at


class Disk:
    """FIFO-served disk with sequential-access optimization.

    A request contiguous with the previous one skips the seek and
    rotational penalties — so a single streaming writer sees near media
    rate while interleaved writers (the Iozone multithread case) pay a
    positioning cost per request.  This is the mechanism behind the
    backend NFS server dominating end-to-end latency in Figure 5.
    """

    #: The device name in the disk process's ``sda@<node>`` label.
    name = "sda"

    def __init__(self, sim, kernel, costs):
        self.sim = sim
        self.kernel = kernel
        self.costs = costs
        self._queue = Store(sim)
        self._next_contiguous = None
        self.reads = 0
        self.writes = 0
        self.busy_time = 0.0
        self.service_stat = RunningStat()
        self.queue_stat = TimeWeightedStat(sim.now)
        self._depth = 0
        sim.process(self._serve(), name="{}@{}".format(self.name, kernel.name))

    def submit(self, kind, offset, nbytes):
        """Queue a request; the waitable triggers when the media finishes."""
        if kind not in ("read", "write"):
            raise ValueError("disk request kind must be read or write")
        done = Waitable(self.sim)
        request = DiskRequest(kind, offset, nbytes, done, self.sim.now)
        self._set_depth(self._depth + 1)
        tracepoints = self.kernel.tracepoints
        tracepoints.fire(
            tp.BLK_ISSUE, kind=kind, offset=offset, nbytes=nbytes, queue_depth=self._depth
        )
        self._queue.put(request)
        return done

    @property
    def queue_depth(self):
        return self._depth

    def utilization(self, now):
        return self.busy_time / now if now > 0 else 0.0

    def _set_depth(self, depth):
        self._depth = depth
        self.queue_stat.update(self.sim.now, depth)

    def _serve(self):
        while True:
            request = yield self._queue.get()
            sequential = request.offset == self._next_contiguous
            service = self.costs.disk_op_cost(request.nbytes, sequential=sequential)
            yield self.sim.timeout(service)
            self._next_contiguous = request.offset + request.nbytes
            self.busy_time += service
            self.service_stat.add(service)
            if request.kind == "read":
                self.reads += 1
            else:
                self.writes += 1
            self._set_depth(self._depth - 1)
            self.kernel.tracepoints.fire(
                tp.BLK_COMPLETE,
                kind=request.kind,
                offset=request.offset,
                nbytes=request.nbytes,
                wait=self.sim.now - request.submitted_at,
                service=service,
            )
            request.done.succeed((request.submitted_at, self.sim.now))
