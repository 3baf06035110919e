"""Deterministic discrete-event simulation engine.

The engine orders ``(time, priority, seq)`` keys.  All higher-level
constructs (processes, timeouts, resources, sockets, CPU schedulers) are
built from two primitives:

* :meth:`Simulator.schedule` — run a callback at an absolute offset, and
* :class:`Waitable` — a one-shot completion cell that callbacks (and
  therefore processes) can chain on.

Determinism matters more than raw speed here: two runs with the same seed
must produce identical traces, because the monitoring toolkit under test
diffs event streams across configurations.  The ``seq`` counter breaks
time ties in insertion order and no wall-clock value ever enters the
simulation.

Storage is split three ways (``docs/performance.md``):

* the array-backed :class:`CalendarQueue` for future events;
* three same-time FIFO *fast lanes*, one per priority band, fed by
  ``call_soon()`` / ``schedule(0.0, ...)``;
* a *delivery lane* of immutable ``(seq, fn, arg)`` tuples for handle-less
  Waitable callback delivery — the single hottest path in the tree.

The split is an implementation detail: every entry still carries its
``(time, priority, seq)`` key and the dispatch loop always pops the
global minimum, so ordering is bit-for-bit identical to a single-heap
engine.  The load-bearing invariant is that a lane entry's time equals
``now`` at insertion and the clock can never advance past a pending lane
entry (the lane entry is a strictly smaller key than any later-time
event), so lane entries are always due and lanes never need sorting.

There is one configuration and one dispatch loop.  Its oracle is stored
data: the dispatch orderings and same-seed trace digests in
``tests/fixtures/golden_digests.json``.
"""

from heapq import heapify, heappop, heappush
from collections import deque

from repro.sim.errors import SimError, StaleWaitable

#: Scheduling priority bands for simultaneous events.  Lower runs first.
PRIORITY_INTERRUPT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_LANE_PRIORITIES = (PRIORITY_INTERRUPT, PRIORITY_NORMAL, PRIORITY_LOW)

#: Calendar-queue bucket width in simulated seconds.  Costs in the OS
#: model are microsecond-scale and timers millisecond-scale, so a 1 ms
#: tick keeps the active bucket small without scattering one workload
#: phase over thousands of buckets.
DEFAULT_CALENDAR_WIDTH = 1e-3

#: Number of ticks covered by the calendar window before entries spill
#: into the overflow heap.
DEFAULT_CALENDAR_BUCKETS = 4096

#: Initial slot-column capacity of a :class:`CalendarQueue` (grows by
#: doubling).
_INITIAL_SLOTS = 256

#: Purge cancelled store entries once at least this many accumulate *and*
#: they make up half the store (amortised O(1) per cancel).
_PURGE_MIN_CANCELLED = 64

#: Upper bound on recycled lane-entry lists kept for reuse.
_POOL_LIMIT = 1024

# Lane entry layout (a mutable list so cancellation can null the
# callback):
#   [time, priority, seq, args, fn]
# ``fn is None`` marks a cancelled (or already-dispatched) entry.  Lane
# entries are recycled through ``Simulator._pool`` after dispatch; the
# ``seq`` stamp is what protects a recycled entry from a stale Handle
# (see :class:`Handle`).


class Handle:
    """Cancellation handle for a lane-scheduled (zero-delay) callback.

    The handle captures the entry's ``seq`` at creation time.  Lane
    entries are recycled through the simulator's pool after dispatch, so
    a stale handle may find its entry list re-stamped for a *different*
    event; the seq comparison makes ``cancel()`` a safe no-op in that
    case.  ``cancelled`` reports only on this handle's own event and
    never reads a recycled entry.
    """

    __slots__ = ("_sim", "_entry", "_seq", "_cancelled")

    def __init__(self, sim, entry):
        self._sim = sim
        self._entry = entry
        self._seq = entry[2]
        self._cancelled = False

    def cancel(self):
        """Prevent the callback from running.  Idempotent."""
        entry = self._entry
        if entry[2] == self._seq and entry[4] is not None:
            entry[4] = None
            entry[3] = None
            self._cancelled = True
            self._sim._cancels += 1

    @property
    def cancelled(self):
        return self._cancelled


class SlotHandle:
    """Cancellation handle for a calendar-queue entry.

    Calendar entries live in recycled slot columns, so the handle keeps
    the slot's generation stamp; once the slot is freed and reused the
    generation no longer matches and ``cancel()`` is a safe no-op.
    """

    __slots__ = ("_store", "_slot", "_gen", "_cancelled")

    def __init__(self, store, slot, gen):
        self._store = store
        self._slot = slot
        self._gen = gen
        self._cancelled = False

    def cancel(self):
        """Prevent the callback from running.  Idempotent."""
        if not self._cancelled and self._store.cancel(self._slot, self._gen):
            self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled


class CalendarQueue:
    """Array-backed calendar-queue event store.

    Callbacks and argument tuples live in preallocated parallel *slot
    columns* (``_fns`` / ``_args`` / ``_gens``) recycled through a free
    list, so the keys that move through the ordering structures are
    small immutable ``(time, priority, seq, slot)`` tuples.  Ordering is
    three-level:

    * the *active* bucket — a tiny binary heap holding the earliest tick;
    * future ticks inside the window — unsorted per-tick lists reached
      through a heap of tick ids, heapified only on activation;
    * everything at or beyond the window horizon — an overflow heap,
      migrated into fresh buckets when the window jumps forward.

    The horizon only moves when the windowed ticks drain, so a tick's
    entries can never be split between a bucket and the overflow heap —
    that is the invariant that keeps the pop order identical to a single
    binary heap's.
    """

    __slots__ = (
        "width",
        "nbuckets",
        "_inv_width",
        "_fns",
        "_args",
        "_gens",
        "_free",
        "_buckets",
        "_tick_heap",
        "_overflow",
        "_active",
        "_active_tick",
        "_horizon",
        "head",
        "size",
        "spills",
        "pulls",
        "advances",
        "purges",
        "cancelled",
        "_cancel_count",
    )

    def __init__(self, width=None, nbuckets=None):
        self.width = DEFAULT_CALENDAR_WIDTH if width is None else width
        if self.width <= 0:
            raise SimError("calendar width must be positive: {}".format(width))
        self.nbuckets = int(DEFAULT_CALENDAR_BUCKETS if nbuckets is None else nbuckets)
        if self.nbuckets < 1:
            raise SimError("calendar needs at least one bucket")
        self._inv_width = 1.0 / self.width
        self._fns = [None] * _INITIAL_SLOTS
        self._args = [None] * _INITIAL_SLOTS
        self._gens = [0] * _INITIAL_SLOTS
        self._free = list(range(_INITIAL_SLOTS - 1, -1, -1))
        self._buckets = {}
        self._tick_heap = []
        self._overflow = []
        self._active = []
        self._active_tick = None
        self._horizon = 0
        self.head = None
        self.size = 0
        self.spills = 0
        self.pulls = 0
        self.advances = 0
        self.purges = 0
        self.cancelled = 0
        self._cancel_count = 0

    def _grow(self):
        cap = len(self._fns)
        self._fns.extend([None] * cap)
        self._args.extend([None] * cap)
        self._gens.extend([0] * cap)
        # Hand out the lowest new slot, stack the rest for reuse.
        self._free.extend(range(2 * cap - 1, cap, -1))
        return cap

    def push(self, when, priority, seq, fn, args):
        """Insert ``fn(*args)`` at key ``(when, priority, seq)``; returns
        its slot (a :class:`SlotHandle` needs it and the slot's current
        generation)."""
        free = self._free
        slot = free.pop() if free else self._grow()
        self._fns[slot] = fn
        self._args[slot] = args
        key = (when, priority, seq, slot)
        tick = int(when * self._inv_width)
        active_tick = self._active_tick
        if active_tick is None:
            # Store was empty: activate this tick directly and re-anchor
            # the window (the old horizon is meaningless once drained).
            self._active.append(key)
            self._active_tick = tick
            self._horizon = tick + self.nbuckets
            self.head = key
        elif tick <= active_tick:
            # Same (or earlier — possible for zero-delay pushes with a
            # custom priority) tick as the active bucket: the active heap
            # is the only structure that keeps exact order.
            heappush(self._active, key)
            self.head = self._active[0]
        elif tick < self._horizon:
            bucket = self._buckets.get(tick)
            if bucket is None:
                self._buckets[tick] = [key]
                heappush(self._tick_heap, tick)
            else:
                bucket.append(key)
        else:
            heappush(self._overflow, key)
            self.spills += 1
        self.size += 1
        return slot

    def pop_live(self):
        """Pop the head entry and free its slot.

        Returns ``(fn, args)``; ``fn`` is None when the head had been
        cancelled (callers skip and retry).
        """
        key = heappop(self._active)
        slot = key[3]
        fn = self._fns[slot]
        args = self._args[slot]
        self._fns[slot] = None
        self._args[slot] = None
        self._gens[slot] += 1
        self._free.append(slot)
        self.size -= 1
        if self._active:
            self.head = self._active[0]
        else:
            self._advance()
        return fn, args

    def live_head(self):
        """The minimum live key, discarding cancelled heads."""
        head = self.head
        if head is None:
            return None
        fns = self._fns
        while fns[head[3]] is None:
            self.pop_live()
            head = self.head
            if head is None:
                return None
        return head

    def _advance(self):
        """Activate the next non-empty tick (migrating overflow if needed)."""
        tick_heap = self._tick_heap
        buckets = self._buckets
        while True:
            if tick_heap:
                tick = heappop(tick_heap)
                bucket = buckets.pop(tick)
                heapify(bucket)
                self._active = bucket
                self._active_tick = tick
                self.head = bucket[0]
                self.advances += 1
                return
            overflow = self._overflow
            if not overflow:
                self._active = []
                self._active_tick = None
                self.head = None
                return
            # The windowed ticks drained: jump the window to the earliest
            # overflow tick and migrate everything now inside it.  Doing
            # this only when the window is empty guarantees a tick is
            # never split between a bucket and the overflow heap.
            inv_width = self._inv_width
            horizon = int(overflow[0][0] * inv_width) + self.nbuckets
            self._horizon = horizon
            while overflow and int(overflow[0][0] * inv_width) < horizon:
                key = heappop(overflow)
                tick = int(key[0] * inv_width)
                bucket = buckets.get(tick)
                if bucket is None:
                    buckets[tick] = [key]
                    heappush(tick_heap, tick)
                else:
                    bucket.append(key)
                self.pulls += 1

    def cancel(self, slot, gen):
        """Cancel the entry in ``slot`` if its generation still matches."""
        if self._gens[slot] != gen or self._fns[slot] is None:
            return False
        self._fns[slot] = None
        self._args[slot] = None
        self.cancelled += 1
        self._cancel_count += 1
        if (
            self._cancel_count >= _PURGE_MIN_CANCELLED
            and self._cancel_count * 2 >= self.size
        ):
            self._purge()
        return True

    def _purge(self):
        """Drop cancelled entries from every structure and free their slots."""
        fns = self._fns
        gens = self._gens
        free = self._free
        dropped = 0

        def sweep(keys):
            nonlocal dropped
            live = []
            for key in keys:
                slot = key[3]
                if fns[slot] is None:
                    gens[slot] += 1
                    free.append(slot)
                    dropped += 1
                else:
                    live.append(key)
            return live

        active = sweep(self._active)
        heapify(active)
        self._active = active
        buckets = self._buckets
        for tick in list(buckets):
            kept = sweep(buckets[tick])
            if kept:
                buckets[tick] = kept
            else:
                del buckets[tick]
        tick_heap = list(buckets)
        heapify(tick_heap)
        self._tick_heap = tick_heap
        overflow = sweep(self._overflow)
        heapify(overflow)
        self._overflow = overflow
        self.size -= dropped
        self._cancel_count = 0
        self.purges += 1
        if active:
            self.head = active[0]
        else:
            self._advance()

    def stats(self):
        """Store counters, folded into :meth:`Simulator.stats`."""
        return {
            "size": self.size,
            "slots": len(self._fns),
            "free_slots": len(self._free),
            "buckets": len(self._buckets),
            "overflow": len(self._overflow),
            "spills": self.spills,
            "pulls": self.pulls,
            "advances": self.advances,
            "purges": self.purges,
            "cancelled": self.cancelled,
        }


class Waitable:
    """One-shot completion cell.

    A waitable is *triggered* exactly once, either successfully
    (:meth:`succeed`) or with an exception (:meth:`fail`).  Callbacks
    added before triggering fire at trigger time; callbacks added after
    fire immediately (in the same timestep, through the event loop so
    that ordering remains deterministic).

    ``_callbacks`` is lazily shaped — ``None`` (no waiters), a bare
    callable (one waiter, the overwhelmingly common case), or a list —
    so the per-waitable cost on the hot path is two attribute writes.
    """

    __slots__ = ("sim", "_done", "_ok", "_value", "_callbacks", "_defused")

    def __init__(self, sim):
        self.sim = sim
        self._done = False
        self._callbacks = None

    @property
    def triggered(self):
        """True once the waitable has succeeded or failed."""
        return self._done

    @property
    def ok(self):
        """True if the waitable succeeded.  Only valid once triggered."""
        try:
            return self._ok
        except AttributeError:
            return None

    @property
    def value(self):
        """The success value or failure exception.  Valid once triggered."""
        try:
            return self._value
        except AttributeError:
            return None

    def add_callback(self, fn):
        """Run ``fn(self)`` when the waitable triggers."""
        if self._done:
            self.sim._soon1(fn, self)
            return
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self._callbacks = [cbs, fn]

    def discard_callback(self, fn):
        """Remove a pending callback if present (used by interrupts)."""
        if self._done:
            return
        cbs = self._callbacks
        if cbs is None:
            return
        if type(cbs) is list:
            if fn in cbs:
                cbs.remove(fn)
                if not cbs:
                    self._callbacks = None
        elif cbs == fn:
            self._callbacks = None

    def succeed(self, value=None):
        """Trigger successfully with ``value``."""
        if self._done:
            raise StaleWaitable("waitable triggered twice: {!r}".format(self))
        self._done = True
        self._ok = True
        self._value = value
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            sim = self.sim
            if type(cbs) is not list:
                # Single waiter: inline the delivery-lane append.
                seq = sim._seqn + 1
                sim._seqn = seq
                sim._dq.append((seq, cbs, self))
            else:
                soon1 = sim._soon1
                for fn in cbs:
                    soon1(fn, self)
        return self

    def fail(self, exc):
        """Trigger with exception ``exc``; waiters will see it raised."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._done:
            raise StaleWaitable("waitable triggered twice: {!r}".format(self))
        self._done = True
        self._ok = False
        self._value = exc
        cbs = self._callbacks
        if cbs is not None:
            self._callbacks = None
            if type(cbs) is not list:
                self.sim._soon1(cbs, self)
            else:
                soon1 = self.sim._soon1
                for fn in cbs:
                    soon1(fn, self)
        elif not getattr(self, "_defused", False):
            raise exc
        return self

    def defuse(self):
        """Mark a failure as handled even with no waiters attached."""
        self._defused = True
        return self


class Timeout(Waitable):
    """Waitable that succeeds after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimError("negative timeout delay: {}".format(delay))
        super().__init__(sim)
        self.delay = delay
        sim._at(delay, self.succeed, value)


class AnyOf(Waitable):
    """Succeeds with the first triggering child waitable."""

    __slots__ = ()

    def __init__(self, sim, children):
        super().__init__(sim)
        children = list(children)
        if not children:
            raise SimError("AnyOf requires at least one waitable")
        for child in children:
            child.add_callback(self._on_child)

    def _on_child(self, child):
        if self._done:
            return
        if child.ok:
            self.succeed(child)
        else:
            self.fail(child.value)


class AllOf(Waitable):
    """Succeeds with a list of child values once every child triggers."""

    __slots__ = ("_pending", "_children")

    def __init__(self, sim, children):
        super().__init__(sim)
        self._children = list(children)
        self._pending = len(self._children)
        if self._pending == 0:
            sim.call_soon(lambda _w: self.succeed([]), self)
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child):
        if self._done:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class Simulator:
    """The event loop: a calendar queue for future events plus same-time
    lanes, drained in global ``(time, priority, seq)`` order.

    >>> sim = Simulator()
    >>> ticks = []
    >>> _ = sim.schedule(5.0, lambda: ticks.append(sim.now))
    >>> sim.run()
    >>> ticks
    [5.0]
    """

    def __init__(self):
        self.now = 0.0
        self._lanes = (deque(), deque(), deque())
        self._dq = deque()
        self._pool = []
        self._seqn = 0
        self._running = False
        self._cancels = 0
        self._pool_hits = 0
        self._pool_misses = 0
        self._store = CalendarQueue()

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay, fn, *args, priority=PRIORITY_NORMAL):
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimError("cannot schedule into the past (delay={})".format(delay))
        seq = self._seqn + 1
        self._seqn = seq
        if delay == 0.0 and priority in _LANE_PRIORITIES:
            pool = self._pool
            if pool:
                entry = pool.pop()
                entry[0] = self.now
                entry[1] = priority
                entry[2] = seq
                entry[3] = args
                entry[4] = fn
                self._pool_hits += 1
            else:
                entry = [self.now, priority, seq, args, fn]
                self._pool_misses += 1
            self._lanes[priority].append(entry)
            return Handle(self, entry)
        store = self._store
        slot = store.push(self.now + delay, priority, seq, fn, args)
        return SlotHandle(store, slot, store._gens[slot])

    def schedule_at(self, when, fn, *args, priority=PRIORITY_NORMAL):
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Float accumulation can make a "now" computed as a sum of deltas
        land a hair before ``self.now``; such sub-epsilon negative delays
        are clamped to zero rather than rejected.
        """
        delay = when - self.now
        if delay < 0 and -delay <= 1e-9 * max(1.0, abs(self.now)):
            delay = 0.0
        return self.schedule(delay, fn, *args, priority=priority)

    def call_soon(self, fn, *args, priority=PRIORITY_NORMAL):
        """Run ``fn(*args)`` at the current time, after pending same-time work."""
        return self.schedule(0.0, fn, *args, priority=priority)

    def _soon1(self, fn, arg):
        """Handle-less single-argument :meth:`call_soon` (hot path).

        Deliveries enqueue as immutable ``(seq, fn, arg)`` tuples on the
        delivery lane: no entry list, no pool traffic, and nothing a
        stale :class:`Handle` could ever reference.  The tuples rank as
        ``PRIORITY_NORMAL`` at the current time, merged with lane-1
        entries by ``seq``.
        """
        seq = self._seqn + 1
        self._seqn = seq
        self._dq.append((seq, fn, arg))

    def _at(self, delay, fn, arg):
        """Handle-less single-argument :meth:`schedule` (hot path).

        The store-side twin of :meth:`_soon1`: ``fn(arg)`` runs ``delay``
        (>= 0) seconds from now at ``PRIORITY_NORMAL``, ordered by its
        ``seq`` like any store entry, but no :class:`SlotHandle` is built,
        so it cannot be cancelled.  Devices that never cancel (the CPU
        slice timer, the link serializer, :class:`Timeout`) schedule
        through it.
        """
        seq = self._seqn + 1
        self._seqn = seq
        self._store.push(self.now + delay, PRIORITY_NORMAL, seq, fn, (arg,))

    # ------------------------------------------------------------------
    # waitable factories
    # ------------------------------------------------------------------

    def waitable(self):
        """A fresh untriggered :class:`Waitable`."""
        return Waitable(self)

    def timeout(self, delay, value=None):
        """A waitable that succeeds after ``delay``."""
        return Timeout(self, delay, value)

    def any_of(self, children):
        """A waitable succeeding with the first triggered child."""
        return AnyOf(self, children)

    def all_of(self, children):
        """A waitable succeeding once all children trigger."""
        return AllOf(self, children)

    def process(self, generator, name=None):
        """Spawn a generator as a simulation process."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def _step_one(self, until=None):
        """Dispatch exactly one event (the global minimum key).

        Returns False when nothing is pending or the next event lies
        beyond ``until``.  This is the generic selector behind
        :meth:`step`; :meth:`_run_lanes` inlines exactly this order.
        """
        now = self.now
        pool = self._pool
        lane = None
        entry = None
        epri = eseq = None
        band = PRIORITY_INTERRUPT
        for candidate in self._lanes:
            while candidate:
                head = candidate[0]
                if head[4] is None:
                    candidate.popleft()
                    head[3] = None
                    if len(pool) < _POOL_LIMIT:
                        pool.append(head)
                    continue
                break
            else:
                band += 1
                continue
            # Lanes are checked in priority order and all lane entries
            # share the same timestamp, so the first live head wins.
            lane = candidate
            entry = head
            epri = band
            eseq = head[2]
            break
        dq = self._dq
        if dq and (entry is None or (PRIORITY_NORMAL, dq[0][0]) < (epri, eseq)):
            lane = None
            entry = None
            epri = PRIORITY_NORMAL
            eseq = dq[0][0]
            use_dq = True
        else:
            use_dq = False
        store = self._store
        while True:
            key = store.live_head()
            if key is None:
                break
            when = key[0]
            if entry is None and not use_dq:
                if until is not None and when > until:
                    return False
            elif when > now or (key[1], key[2]) >= (epri, eseq):
                break
            fn, args = store.pop_live()
            if fn is None:
                continue
            if when < now:
                raise SimError("time went backwards: {} < {}".format(when, now))
            self.now = when
            fn(*args)
            return True
        if use_dq:
            item = dq.popleft()
            item[1](item[2])
            return True
        if entry is None:
            return False
        lane.popleft()
        fn = entry[4]
        args = entry[3]
        entry[3] = entry[4] = None
        if len(pool) < _POOL_LIMIT:
            pool.append(entry)
        fn(*args)
        return True

    def peek(self):
        """Time of the next pending event, or ``None`` if nothing is queued."""
        if self._dq:
            return self.now
        for lane in self._lanes:
            for entry in lane:
                if entry[4] is not None:
                    return entry[0]
        key = self._store.live_head()
        return key[0] if key is not None else None

    def step(self):
        """Process exactly one pending event.  Returns False if none remain."""
        return self._step_one()

    def run(self, until=None):
        """Run until the queues drain or ``until`` (absolute time) is reached.

        When ``until`` is given the clock is advanced exactly to it even if
        the queues drained earlier, so back-to-back ``run(until=...)`` calls
        observe a monotonically advancing clock.
        """
        if self._running:
            raise SimError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            if until is None or until >= self.now:
                self._run_lanes(until)
            if until is not None:
                if until < self.now:
                    raise SimError(
                        "run(until={}) is in the past (now={})".format(until, self.now)
                    )
                self.now = until
        finally:
            self._running = False

    def _run_lanes(self, until):
        """The lane-accelerated drain loop — the hottest region in the tree.

        It inlines :meth:`_step_one` with containers bound to locals
        (see ``benchmarks/test_bench_engine.py``).  Lane/delivery entries
        are always at ``now`` and ``now`` can only advance through store
        dispatches, which re-check ``until``; the entry guard in
        :meth:`run` therefore keeps every dispatch ``<= until``.
        """
        dq = self._dq
        lane0, lane1, lane2 = self._lanes
        pool = self._pool
        store = self._store
        now = self.now
        while True:
            # Band candidate: the live head of the lowest non-empty band,
            # with the delivery lane merged into band 1 by seq.
            entry = None
            lane = None
            use_dq = False
            if lane0:
                entry = lane0[0]
                if entry[4] is None:
                    lane0.popleft()
                    entry[3] = None
                    if len(pool) < _POOL_LIMIT:
                        pool.append(entry)
                    continue
                lane = lane0
                epri = 0
                eseq = entry[2]
            elif lane1:
                entry = lane1[0]
                if entry[4] is None:
                    lane1.popleft()
                    entry[3] = None
                    if len(pool) < _POOL_LIMIT:
                        pool.append(entry)
                    continue
                if dq and dq[0][0] < entry[2]:
                    entry = None
                    use_dq = True
                    epri = 1
                    eseq = dq[0][0]
                else:
                    lane = lane1
                    epri = 1
                    eseq = entry[2]
            elif dq:
                use_dq = True
                epri = 1
                eseq = dq[0][0]
            elif lane2:
                entry = lane2[0]
                if entry[4] is None:
                    lane2.popleft()
                    entry[3] = None
                    if len(pool) < _POOL_LIMIT:
                        pool.append(entry)
                    continue
                lane = lane2
                epri = 2
                eseq = entry[2]
            key = store.head
            if key is not None:
                if entry is None and not use_dq:
                    # Nothing same-time pending: the store decides.
                    when = key[0]
                    if until is not None and when > until:
                        break
                    fn, args = store.pop_live()
                    if fn is None:
                        continue
                    if when < now:
                        raise SimError(
                            "time went backwards: {} < {}".format(when, now)
                        )
                    self.now = now = when
                    fn(*args)
                    continue
                when = key[0]
                if when <= now and (key[1], key[2]) < (epri, eseq):
                    fn, args = store.pop_live()
                    if fn is None:
                        continue
                    if when < now:
                        raise SimError(
                            "time went backwards: {} < {}".format(when, now)
                        )
                    self.now = when
                    fn(*args)
                    continue
            elif entry is None and not use_dq:
                break
            if use_dq:
                item = dq.popleft()
                item[1](item[2])
                continue
            lane.popleft()
            fn = entry[4]
            args = entry[3]
            entry[3] = entry[4] = None
            if len(pool) < _POOL_LIMIT:
                pool.append(entry)
            fn(*args)

    def run_until_triggered(self, waitable, limit=None):
        """Run until ``waitable`` triggers; returns its value (or raises).

        ``limit`` bounds the absolute simulated time to guard against
        deadlocks in tests.
        """
        while not waitable.triggered:
            if limit is not None and self.now > limit:
                raise SimError("run_until_triggered exceeded limit {}".format(limit))
            if not self.step():
                raise SimError("event heap drained before waitable triggered")
        if waitable.ok:
            return waitable.value
        raise waitable.value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self):
        """Engine counters for the metrics registry (``sysprof.sim``).

        ``store_*`` keys fold in the calendar queue's own counters (size,
        lazy purges, overflow spills and window migrations).
        """
        lanes = self._lanes
        out = {
            "events_scheduled": self._seqn,
            "delivery_depth": len(self._dq),
            "lane_depth_interrupt": len(lanes[0]),
            "lane_depth_normal": len(lanes[1]),
            "lane_depth_low": len(lanes[2]),
            "pool_size": len(self._pool),
            "pool_hits": self._pool_hits,
            "pool_misses": self._pool_misses,
            "handle_cancels": self._cancels,
        }
        for key, value in self._store.stats().items():
            out["store_" + key] = value
        return out
