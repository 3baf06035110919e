"""Per-CPU double buffering for analyzer output records.

Faithful to the paper's mechanism: "each LPA maintains two per-CPU
buffers to store captured data, and when one of them has been filled, the
dissemination daemon is notified, and the LPA switches to the next
buffer.  Each such buffer switch requires interrupts to be disabled
locally to avoid data corruption" — the switch charges
``costs.buffer_switch`` of interrupt-context CPU.  "If the data is not
picked up in a timely fashion, it may be overwritten" — switching onto a
buffer the daemon has not drained discards its contents and counts them
as lost.
"""

from repro.observability import tracer as _trace
from repro.ossim.task import BAND_IRQ


class DoubleBuffer:
    """Two fixed-capacity record buffers with switch-on-full semantics."""

    def __init__(self, kernel, capacity, on_full=None, name="lpa-buf"):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self.on_full = on_full
        self._buffers = ([], [])
        self._drained = [True, True]
        self._active = 0
        self.records_appended = 0
        self.records_lost = 0
        self.switches = 0

    @property
    def active_length(self):
        return len(self._buffers[self._active])

    def append(self, record):
        """Append a record; switches buffers (and notifies) when full."""
        buffer = self._buffers[self._active]
        buffer.append(record)
        self.records_appended += 1
        if len(buffer) >= self.capacity:
            self.switch()

    def switch(self, force=False):
        """Swap active buffers and hand the full one to the daemon.

        ``force`` flushes a partially-filled buffer (periodic eviction);
        an *empty* buffer is never handed off, forced or not — there is
        nothing to disable interrupts for.  Returns the sequence number
        of the handed-off buffer, or ``None`` if there was nothing to
        hand off.
        """
        active = self._active
        if not self._buffers[active]:
            return None
        # Interrupts disabled locally for the swap: charge irq-context CPU.
        self.kernel.cpu.submit(
            None, self.kernel.costs.buffer_switch, "kernel", band=BAND_IRQ,
            attribution="analyzer",
        ).defuse()
        other = 1 - active
        lost = 0
        if not self._drained[other] and self._buffers[other]:
            # Late consumer: overwrite undrained data.
            lost = len(self._buffers[other])
            self.records_lost += lost
            self._buffers[other].clear()
            self._drained[other] = True
        self._drained[active] = False
        self._active = other
        self.switches += 1
        if _trace.enabled:
            _trace.active().buffer_switch(
                self.kernel.name, self.name, self.kernel.sim.now, lost=lost
            )
        if self.on_full is not None:
            self.on_full(self, active)
        return active

    def drain(self, index):
        """Daemon side: take all records out of buffer ``index``."""
        records = list(self._buffers[index])
        self._buffers[index].clear()
        self._drained[index] = True
        return records

    def drain_into(self, index, out):
        """Drain buffer ``index`` by appending its records to ``out``.

        The daemon's frame path coalesces several drains into one shared
        per-channel list; extending it directly skips the intermediate
        list that :meth:`drain` would allocate.  Returns the number of
        records drained.
        """
        records = self._buffers[index]
        count = len(records)
        out.extend(records)
        records.clear()
        self._drained[index] = True
        return count

    def stats(self):
        return {
            "appended": self.records_appended,
            "lost": self.records_lost,
            "switches": self.switches,
            "active_length": self.active_length,
        }


class SingleBuffer(DoubleBuffer):
    """Single-buffer variant for the buffering ablation: the producer keeps
    writing into the same buffer while the daemon drains, so any record
    arriving mid-drain window is lost."""

    def __init__(self, kernel, capacity, on_full=None):
        super().__init__(kernel, capacity, on_full=on_full, name="lpa-sbuf")

    def switch(self, force=False):
        active = self._active
        if not self._buffers[active]:
            return None
        self.kernel.cpu.submit(
            None, self.kernel.costs.buffer_switch, "kernel", band=BAND_IRQ,
            attribution="analyzer",
        ).defuse()
        if not self._drained[active]:
            lost = len(self._buffers[active])
            self.records_lost += lost
            self._buffers[active].clear()
            self._drained[active] = True
            if _trace.enabled:
                _trace.active().buffer_switch(
                    self.kernel.name, self.name, self.kernel.sim.now, lost=lost
                )
            return None
        self._drained[active] = False
        self.switches += 1
        if _trace.enabled:
            _trace.active().buffer_switch(
                self.kernel.name, self.name, self.kernel.sim.now
            )
        if self.on_full is not None:
            self.on_full(self, active)
        return active
