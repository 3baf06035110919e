"""Deterministic discrete-event simulation engine.

The engine orders ``(time, seq)`` keys.  All higher-level constructs
(processes, timeouts, resources, sockets, CPU schedulers) are built from
two primitives:

* :meth:`Simulator.schedule` — run a callback at an absolute offset, and
* :class:`Waitable` — a one-shot completion cell that callbacks (and
  therefore processes) can chain on.

Determinism matters more than raw speed here: two runs with the same seed
must produce identical traces, because the monitoring toolkit under test
diffs event streams across configurations.  The ``seq`` counter breaks
time ties in insertion order and no wall-clock value ever enters the
simulation.

Pending work lives in two structures (``docs/performance.md``):

* the :class:`CalendarQueue` of ``(time, seq, fn, args)`` keys, fed by
  ``schedule()``, ``call_soon()`` and ``_at()``;
* the *delivery lane*, a FIFO of ``(seq, fn, arg)`` tuples fed by
  ``_soon1()`` for Waitable callback delivery — the single hottest path
  in the tree.

One loop, :meth:`Simulator._drain`, serves both ``run()`` and ``step()``
and always dispatches the global ``(time, seq)`` minimum.  A delivery is
due at the ``now`` it was queued at, and the clock cannot advance past
it: the lane head is a smaller key than any later-time calendar entry.
Since ``seq`` only grows, the lane is sorted by construction.

Its oracle is stored data: the dispatch orderings and same-seed trace
digests in ``tests/fixtures/golden_digests.json``.
"""

from heapq import heapify, heappop, heappush
from collections import deque

from repro.sim.errors import SimError, StaleWaitable

#: Calendar-queue bucket width in simulated seconds.  Costs in the OS
#: model are microsecond-scale and timers millisecond-scale, so a 1 ms
#: tick keeps the active bucket small without scattering one workload
#: phase over thousands of buckets.
DEFAULT_CALENDAR_WIDTH = 1e-3

#: Number of ticks covered by the calendar window before entries spill
#: into the overflow heap.
DEFAULT_CALENDAR_BUCKETS = 4096


class CalendarQueue:
    """Calendar-queue event store of ``(time, seq, fn, args)`` keys.

    ``seq`` is unique, so comparing two keys never reaches ``fn``.
    Ordering is three-level:

    * the *active* bucket — a tiny binary heap holding the earliest tick
      (and any push at or before it, such as a zero-delay one);
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
    )

    def __init__(self, width=None, nbuckets=None):
        self.width = DEFAULT_CALENDAR_WIDTH if width is None else width
        if self.width <= 0:
            raise SimError("calendar width must be positive: {}".format(width))
        self.nbuckets = int(DEFAULT_CALENDAR_BUCKETS if nbuckets is None else nbuckets)
        if self.nbuckets < 1:
            raise SimError("calendar needs at least one bucket")
        self._inv_width = 1.0 / self.width
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

    def push(self, when, seq, fn, args):
        """Insert ``fn(*args)`` at key ``(when, seq)``."""
        key = (when, seq, fn, args)
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
            # Same (or earlier — a zero-delay push while the active bucket
            # holds a later tick) tick as the active bucket: the active
            # heap is the only structure that keeps exact order.
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

    def pop(self):
        """Remove and return the head key."""
        key = heappop(self._active)
        self.size -= 1
        if self._active:
            self.head = self._active[0]
        else:
            self._advance()
        return key

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

    def stats(self):
        """Store counters, folded into :meth:`Simulator.stats`."""
        return {
            "size": self.size,
            "buckets": len(self._buckets),
            "overflow": len(self._overflow),
            "spills": self.spills,
            "pulls": self.pulls,
            "advances": self.advances,
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
    """The event loop: a calendar queue for timed events plus the delivery
    lane, drained in global ``(time, seq)`` order.

    >>> sim = Simulator()
    >>> ticks = []
    >>> sim.schedule(5.0, lambda: ticks.append(sim.now))
    >>> sim.run()
    >>> ticks
    [5.0]
    """

    def __init__(self):
        self.now = 0.0
        self._dq = deque()
        self._seqn = 0
        self._running = False
        self._store = CalendarQueue()

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimError("cannot schedule into the past (delay={})".format(delay))
        seq = self._seqn + 1
        self._seqn = seq
        self._store.push(self.now + delay, seq, fn, args)

    def schedule_at(self, when, fn, *args):
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        Float accumulation can make a "now" computed as a sum of deltas
        land a hair before ``self.now``; such sub-epsilon negative delays
        are clamped to zero rather than rejected.
        """
        delay = when - self.now
        if delay < 0 and -delay <= 1e-9 * max(1.0, abs(self.now)):
            delay = 0.0
        self.schedule(delay, fn, *args)

    def call_soon(self, fn, *args):
        """Run ``fn(*args)`` at the current time, after pending same-time work."""
        self.schedule(0.0, fn, *args)

    def _soon1(self, fn, arg):
        """Single-argument :meth:`call_soon` on the delivery lane (hot path).

        Appends an immutable ``(seq, fn, arg)`` tuple; it runs at the
        current time, merged with same-time calendar entries by ``seq``.
        """
        seq = self._seqn + 1
        self._seqn = seq
        self._dq.append((seq, fn, arg))

    def _at(self, delay, fn, arg):
        """Single-argument :meth:`schedule` (hot path).

        ``fn(arg)`` runs ``delay`` seconds from now; the caller guarantees
        ``delay >= 0``, so there is no check and no varargs packing.  The
        devices (the CPU slice timer, the link serializer) and
        :class:`Timeout` schedule through it.
        """
        seq = self._seqn + 1
        self._seqn = seq
        self._store.push(self.now + delay, seq, fn, (arg,))

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

    def step(self):
        """Process exactly one pending event.  Returns False if none remain."""
        return self._drain(None, True)

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
                self._drain(until, False)
            if until is not None:
                if until < self.now:
                    raise SimError(
                        "run(until={}) is in the past (now={})".format(until, self.now)
                    )
                self.now = until
        finally:
            self._running = False

    def _drain(self, until, once):
        """The one dispatch loop — the hottest region in the tree.

        Each pass dispatches the global ``(time, seq)`` minimum: the
        delivery lane's head unless the calendar head is a smaller key.
        Deliveries are at ``now`` and never move the clock, so only a
        calendar dispatch checks ``until``; the entry guard in :meth:`run`
        therefore keeps every dispatch ``<= until``.  Returns True after
        one dispatch when ``once`` is set, and False once nothing is due.
        """
        dq = self._dq
        store = self._store
        now = self.now
        while True:
            key = store.head
            if dq:
                if key is None or key[0] > now or key[1] > dq[0][0]:
                    _seq, fn, arg = dq.popleft()
                    fn(arg)
                    if once:
                        return True
                    continue
            elif key is None or (until is not None and key[0] > until):
                return False
            when, _seq, fn, args = store.pop()
            if when < now:
                raise SimError("time went backwards: {} < {}".format(when, now))
            self.now = now = when
            fn(*args)
            if once:
                return True

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
        overflow spills and window migrations).
        """
        out = {
            "events_scheduled": self._seqn,
            "delivery_depth": len(self._dq),
        }
        for key, value in self._store.stats().items():
            out["store_" + key] = value
        return out
