"""Client-side request dispatcher driven by DWCS.

"The scheduler ran on the same node as the client and the request
dispatching was facilitated by prefixing the request's URL path with the
appropriate servlet server's name" (§3.3).  Sessions submit requests into
per-class DWCS streams; the dispatcher picks the next request by DWCS
precedence, stamps the target servlet (the router's decision — blind
round-robin for plain DWCS, load-aware for RA-DWCS), and sends it through
a per-servlet pool of connections to the front-end.  Each connection
carries one request at a time (a dispatch *slot*); when a servlet's slots
are all occupied the dispatcher head-of-line blocks, which is how a slow
server degrades every class under a blind router.
"""

from repro.sim.resources import Gate


class DispatchRecord:
    __slots__ = ("ts", "request_class", "latency", "servlet")

    def __init__(self, ts, request_class, latency, servlet):
        self.ts = ts
        self.request_class = request_class
        self.latency = latency
        self.servlet = servlet


class RoundRobinRouter:
    """Blind routing: alternate servlets regardless of their load."""

    def __init__(self, servlet_names):
        self.servlet_names = list(servlet_names)
        self._next = 0

    def choose(self, request, dispatcher):
        name = self.servlet_names[self._next % len(self.servlet_names)]
        self._next += 1
        return name


class RequestDispatcher:
    """DWCS-scheduled dispatcher with per-servlet connection slots."""

    #: The dispatch task's name.
    name = "dwcs-dispatcher"
    #: Seconds between sheddings of late requests while the chosen
    #: servlet has no free slot.
    shed_poll = 20e-3

    def __init__(self, node, frontend, frontend_port, servlet_names, scheduler,
                 router=None, slots_per_servlet=12):
        self.node = node
        self.frontend = frontend
        self.frontend_port = frontend_port
        self.servlet_names = list(servlet_names)
        self.scheduler = scheduler
        self.router = router or RoundRobinRouter(self.servlet_names)
        self.slots_per_servlet = slots_per_servlet
        self.completions = []
        self.drops = []
        self.dispatched = 0
        self._free = {name: [] for name in self.servlet_names}
        self._outstanding = {}
        self._work = Gate(node.sim)
        self._slot_free = Gate(node.sim)
        self.task = None
        self._stopped = False

    # ------------------------------------------------------------------

    def submit(self, request):
        """Session-side entry: queue a request into its DWCS stream."""
        self.scheduler.submit(request.name, request)
        self._work.fire()

    def stop(self):
        self._stopped = True
        self._work.fire()

    def free_slots(self, servlet):
        return len(self._free[servlet])

    def start(self):
        self.task = self.node.spawn(self.name, self._run)
        return self

    # ------------------------------------------------------------------

    def _run(self, ctx):
        # Open the connection pools (one slot = one connection).
        for servlet in self.servlet_names:
            for i in range(self.slots_per_servlet):
                sock = yield from ctx.connect(self.frontend, self.frontend_port)
                self._free[servlet].append(sock)
                ctx.spawn(
                    "{}-coll-{}-{}".format(self.name, servlet, i),
                    self._collector, sock, servlet,
                )
        while not self._stopped:
            now = ctx.now
            for request in self.scheduler.shed_late(now):
                self.drops.append(DispatchRecord(now, request.name, None, None))
            if self.scheduler.backlog == 0:
                yield from ctx.wait(self._work.wait(), reason="dwcs-idle")
                continue
            picked = self.scheduler.pick(ctx.now)
            if picked is None:
                continue
            _stream, request = picked
            servlet = self.router.choose(request, self)
            # Wait for a slot on the chosen servlet (head-of-line blocking:
            # the DWCS decision is already made).
            while not self._free[servlet] and not self._stopped:
                wakeup = ctx.sim.any_of(
                    [self._slot_free.wait(), ctx.sim.timeout(self.shed_poll)]
                )
                yield from ctx.wait(wakeup, reason="dwcs-slot")
                now = ctx.now
                for late in self.scheduler.shed_late(now):
                    self.drops.append(DispatchRecord(now, late.name, None, None))
            if self._stopped:
                break
            sock = self._free[servlet].pop()
            request.dispatched_at = ctx.now
            request.servlet = servlet
            meta = request.meta()
            meta["servlet"] = servlet
            self._outstanding[request.request_id] = request
            self.dispatched += 1
            yield from ctx.send_message(
                sock, request.profile.request_bytes, kind=request.name, meta=meta
            )
        return "dispatcher-stopped"

    def _collector(self, ctx, sock, servlet):
        while True:
            reply = yield from ctx.recv_message(sock)
            if reply is None:
                break
            meta = reply.meta or {}
            request = self._outstanding.pop(meta.get("req_id"), None)
            self._free[servlet].append(sock)
            self._slot_free.fire()
            if request is None:
                continue
            request.completed_at = ctx.now
            self.completions.append(
                DispatchRecord(
                    ctx.now, request.name, ctx.now - request.arrival, servlet
                )
            )

    # ------------------------------------------------------------------

    def throughput_series(self, bin_width=1.0, until=None):
        """Per-class responses/sec time series: {class: [(bin_start, rate)]}."""
        series = {}
        for record in self.completions:
            if until is not None and record.ts > until:
                continue
            bin_start = int(record.ts / bin_width) * bin_width
            series.setdefault(record.request_class, {}).setdefault(bin_start, 0)
            series[record.request_class][bin_start] += 1
        return {
            name: sorted(
                (start, count / bin_width) for start, count in bins.items()
            )
            for name, bins in series.items()
        }

    def mean_throughput(self, request_class, t0, t1):
        count = sum(
            1 for record in self.completions
            if record.request_class == request_class and t0 <= record.ts < t1
        )
        return count / (t1 - t0) if t1 > t0 else 0.0

    def stats(self):
        return {
            "dispatched": self.dispatched,
            "completed": len(self.completions),
            "dropped": len(self.drops),
            "streams": self.scheduler.stats(),
        }
