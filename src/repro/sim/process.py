"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.engine.Waitable`
instances.  The process suspends until the yielded waitable triggers; its
success value is sent back into the generator (``x = yield some_waitable``)
and a failure is raised at the yield point.

Processes are themselves waitables: they trigger with the generator's
return value, or fail with its uncaught exception.  A process blocked on a
waitable can be interrupted, which raises :class:`~repro.sim.errors.Interrupt`
inside it — how a task is killed.
"""

import types

from repro.sim.engine import Waitable
from repro.sim.errors import Interrupt, SimError


class Process(Waitable):
    """A running simulation process.  Create via :meth:`Simulator.process`."""

    __slots__ = ("name", "_gen", "_target", "_started", "_resume")

    def __init__(self, sim, generator, name=None):
        if not isinstance(generator, types.GeneratorType):
            raise TypeError(
                "Process requires a generator, got {!r}".format(type(generator))
            )
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._target = None
        self._started = False
        # One bound method for every wait, instead of a new one per yield.
        self._resume = self._on_target
        sim._soon1(self._start, None)

    def __repr__(self):
        state = "done" if self.triggered else ("waiting" if self._target else "new")
        return "<Process {} [{}]>".format(self.name, state)

    @property
    def is_alive(self):
        return not self.triggered

    # ------------------------------------------------------------------

    def _start(self, _arg=None):
        if self.triggered:  # interrupted before first step
            return
        self._started = True
        self._advance(send_value=None)

    def _advance(self, send_value=None, throw_exc=None):
        try:
            if throw_exc is not None:
                target = self._gen.throw(throw_exc)
            else:
                target = self._gen.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Waitable):
            self._gen.close()
            self.fail(
                SimError(
                    "process {} yielded a non-waitable: {!r}".format(self.name, target)
                )
            )
            return
        self._target = target
        target.add_callback(self._resume)

    def _on_target(self, waitable):
        if waitable is not self._target or self._done:
            return  # stale wakeup after an interrupt
        self._target = None
        if waitable._ok:
            self._advance(waitable._value)
        else:
            self._advance(None, waitable._value)

    # ------------------------------------------------------------------

    def interrupt(self, cause=None):
        """Raise :class:`Interrupt` inside the process at its yield point.

        Safe to call at any moment before the process finishes; interrupting
        a finished process is a no-op.  The waitable the process was blocked
        on keeps running but its eventual trigger is ignored.
        """
        if self.triggered:
            return
        self.sim._soon1(self._deliver_interrupt, cause)

    def _deliver_interrupt(self, cause):
        if self.triggered:
            return
        if not self._started:
            # Interrupt landed before the first step: kill quietly.
            self._gen.close()
            self.succeed(None)
            return
        target, self._target = self._target, None
        if target is not None:
            target.discard_callback(self._resume)
        self._advance(throw_exc=Interrupt(cause))
