"""Linpack-like pure-CPU benchmark.

Used for the paper's §3.1 microbenchmark: "There was no change in the
mflops measured by linpack due to SysProf ... SysProf generates more
activities when there are network interactions, so linpack was probably
not a very good benchmark" — i.e. a CPU-bound, network-silent workload
must see (almost) no perturbation.  Each iteration models a fixed number
of floating-point operations executed at the node's calibrated rate.
"""

#: Simulated floating-point throughput of the testbed CPU (2.8 GHz, one
#: FLOP per cycle sustained on linpack's DGEFA inner loops).
FLOPS_PER_SECOND = 2.8e9

#: FLOPs per benchmark iteration (one smallish DGEFA/DGESL solve).
FLOPS_PER_ITERATION = 2.0e6


class LinpackResult:
    def __init__(self, iterations, flops, elapsed):
        self.iterations = iterations
        self.flops = flops
        self.elapsed = elapsed

    @property
    def mflops(self):
        return self.flops / self.elapsed / 1e6 if self.elapsed > 0 else 0.0

    def __repr__(self):
        return "<LinpackResult {:.1f} MFLOPS over {:.3f}s>".format(
            self.mflops, self.elapsed
        )


def spawn_linpack(node, duration):
    """Run linpack on ``node`` for ``duration`` simulated seconds.

    Returns the task; its ``exit_value`` is a :class:`LinpackResult`.
    """

    def linpack(ctx):
        start = ctx.now
        end = start + duration
        iterations = 0
        per_iteration = FLOPS_PER_ITERATION / FLOPS_PER_SECOND
        while ctx.now < end:
            yield from ctx.compute(per_iteration)
            iterations += 1
        return LinpackResult(
            iterations, iterations * FLOPS_PER_ITERATION, ctx.now - start
        )

    return node.spawn("linpack", linpack)
