"""Custom Performance Analyzers: E-Code programs loaded into the kernel.

"In addition to the statically defined LPAs, custom analyzers can be
dynamically created and downloaded into the kernel.  CPAs function just
like normal LPAs, including registering of callbacks with Kprof and
indicating the set of events they wish to receive."

Program conventions:

* ``void handle(event e)`` — called for every subscribed event (required);
* ``double metric_<name>()`` — zero-arg functions whose return values are
  emitted as ``(key, value)`` records on each eviction cycle;
* globals persist across calls (the analyzer's state).
"""

from repro.core.ecode import ECodeError, ECodeProgram
from repro.core.lpa import LocalPerformanceAnalyzer

CPA_FORMAT = (
    "sysprof.cpa",
    (
        ("node", "str16"),
        ("analyzer", "str24"),
        ("ts", "f64"),
        ("key", "str24"),
        ("value", "f64"),
    ),
)


class CustomAnalyzer(LocalPerformanceAnalyzer):
    """An LPA whose analysis function is a runtime-compiled E-Code program."""

    record_format = CPA_FORMAT

    def __init__(self, kernel, kprof, source, etypes, name="cpa",
                 predicate=None, cost=None):
        super().__init__(kernel, kprof, name, buffer_capacity=64)
        self.program = ECodeProgram.compile(source)
        self.instance = self.program.instantiate()
        if not self.instance.has_function("handle"):
            raise ECodeError("CPA program must define handle(event e)")
        self.etypes = list(etypes)
        self.predicate = predicate
        self.cost = cost
        self.events_handled = 0
        self.errors = 0
        self._metric_functions = [
            fname for fname in self.program.function_names
            if fname.startswith("metric_")
        ]

    def _subscribe(self):
        self._add_subscription(
            self.etypes, self._on_event, predicate=self.predicate, cost=self.cost
        )

    def _on_event(self, event):
        try:
            self.instance.call("handle", event)
            self.events_handled += 1
        except ECodeError:
            # A buggy downloaded analyzer must never crash the kernel:
            # count and continue (the controller can inspect and unload).
            self.errors += 1

    def metrics(self):
        """Evaluate all metric_* functions -> {key: value}."""
        values = {}
        for fname in self._metric_functions:
            try:
                values[fname[len("metric_"):]] = float(self.instance.call(fname))
            except ECodeError:
                self.errors += 1
        return values

    def read_global(self, name):
        return self.instance.globals[name]

    def evict(self):
        now = self.kernel.clock.local_time(self.kernel.sim.now)
        for key, value in sorted(self.metrics().items()):
            # Preordered row: CPA_FORMAT field order.
            self.buffer.append((self.kernel.name, self.name, now, key, value))
        return super().evict()

    def stats(self):
        base = super().stats()
        base.update({"handled": self.events_handled, "errors": self.errors})
        return base
