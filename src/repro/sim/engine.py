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

* the *timer heap*, a plain :mod:`heapq` list of ``(time, seq, fn,
  args)`` keys fed by ``schedule()``, ``call_soon()`` and ``_at()``;
* the *delivery lane*, a FIFO of ``(seq, fn, arg)`` tuples fed by
  ``_soon1()`` for Waitable callback delivery — the single hottest path
  in the tree.

One loop, :meth:`Simulator._drain`, serves both ``run()`` and ``step()``
and always dispatches the global ``(time, seq)`` minimum.  A delivery is
due at the ``now`` it was queued at, and the clock cannot advance past
it: the lane head is a smaller key than any later-time heap entry.
Since ``seq`` only grows, the lane is sorted by construction.  ``seq``
is unique, so comparing two heap keys never reaches ``fn``.  A NaN time
would compare false both ways and silently misorder the heap, so every
entry point that takes a delay or a horizon refuses NaN.

Its oracle is stored data: the dispatch orderings and same-seed trace
digests in ``tests/fixtures/golden_digests.json``.
"""

from heapq import heappop, heappush
from collections import deque

from repro.sim.errors import SimError, StaleWaitable


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
        if not delay >= 0:
            raise SimError("negative or NaN timeout delay: {}".format(delay))
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
    """The event loop: a binary heap of timed events plus the delivery
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
        self._heap = []

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:
            raise SimError(
                "cannot schedule into the past or at NaN (delay={})".format(delay)
            )
        seq = self._seqn + 1
        self._seqn = seq
        heappush(self._heap, (self.now + delay, seq, fn, args))

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
        current time, merged with same-time heap entries by ``seq``.
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
        heappush(self._heap, (self.now + delay, seq, fn, (arg,)))

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
        observe a monotonically advancing clock.  An ``until`` in the past
        or NaN is refused before anything runs.
        """
        if self._running:
            raise SimError("simulator is already running (re-entrant run())")
        if until is not None and not until >= self.now:
            raise SimError(
                "run(until={}) is in the past or NaN (now={})".format(until, self.now)
            )
        self._running = True
        try:
            self._drain(until, False)
            if until is not None:
                self.now = until
        finally:
            self._running = False

    def _drain(self, until, once):
        """The one dispatch loop — the hottest region in the tree.

        Each pass dispatches the global ``(time, seq)`` minimum: the
        delivery lane's head unless the heap's head is a smaller key.
        Deliveries are at ``now`` and never move the clock, so only a
        heap dispatch checks ``until``; the entry guard in :meth:`run`
        therefore keeps every dispatch ``<= until``.  Returns True after
        one dispatch when ``once`` is set, and False once nothing is due.
        """
        dq = self._dq
        heap = self._heap
        now = self.now
        while True:
            key = heap[0] if heap else None
            if dq:
                if key is None or key[0] > now or key[1] > dq[0][0]:
                    _seq, fn, arg = dq.popleft()
                    fn(arg)
                    if once:
                        return True
                    continue
            elif key is None or (until is not None and key[0] > until):
                return False
            when, _seq, fn, args = heappop(heap)
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
        """Engine counters for the metrics registry (``sysprof.sim``):
        events scheduled so far, and the delivery lane's and the timer
        heap's current depths."""
        return {
            "events_scheduled": self._seqn,
            "delivery_depth": len(self._dq),
            "store_size": len(self._heap),
        }
