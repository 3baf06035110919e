"""A fixed amount of plain-Python work that yardsticks the host's speed.

The host this benchmark runs on is shared: a rep's wall time swings by
15-30% from minute to minute as neighbours load the machine.  The
reference loop runs in short chunks between the slices of every rep, so
it meets the same host the simulation met.  Host seconds multiplied by
the reference's speed relative to :data:`NOMINAL_RATE` are seconds on
the nominal host, which neighbours move far less than raw wall time.
It imports nothing from ``repro``, so no change to the program can move
it.

The loop resembles the simulator's own hot path: generators resumed off
a binary heap, each resume touching a pseudo-random slot of a dict.
"""

import heapq
import time

#: Reference steps per second on a quiet host -- a 2-vCPU Intel Xeon VM
#: running Python 3.11, where this benchmark was defined.  Host seconds
#: are rescaled to that host's speed; the value only fixes the scale.
NOMINAL_RATE = 750_000.0


class Reference:
    """The reference loop; :meth:`run` advances it and times the advance."""

    def __init__(self, processes=2000, cells=1 << 16):
        self.cells = cells
        self.table = dict.fromkeys(range(cells), 0)
        self.generators = [self._process(index) for index in range(processes)]
        self.heap = [(next(gen), index, index) for index, gen in enumerate(self.generators)]
        heapq.heapify(self.heap)
        self.seq = processes
        self.steps = 0
        self.seconds = 0.0

    def _process(self, index):
        state, table, mask = index, self.table, self.cells - 1
        while True:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            table[state & mask] += 1
            yield (state % 997) * 1e-6

    def run(self, steps):
        """Resume ``steps`` generators in heap order."""
        heap, generators = self.heap, self.generators
        pop, push = heapq.heappop, heapq.heappush
        seq = self.seq
        started = time.perf_counter()
        for _ in range(steps):
            due, _seq, index = pop(heap)
            seq += 1
            push(heap, (due + generators[index].send(None), seq, index))
        self.seconds += time.perf_counter() - started
        self.steps += steps
        self.seq = seq

    def speed(self):
        """This host's speed so far, as a fraction of the nominal host's."""
        return self.steps / self.seconds / NOMINAL_RATE
