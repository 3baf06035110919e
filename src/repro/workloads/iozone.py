"""Iozone-like filesystem workload generator.

§3.2: "We configured Iozone to generate write/re-write tests and varied
the number of threads it forks to see the effect on resource usage."
Each thread owns one file, looks it up, and performs sequential
:data:`RECORD_BYTES` records over its own NFS mount, then optionally a
re-write pass over the same range.

``stable=False`` with ``commit_every`` models iozone over the kernel
NFSv3 client (write-behind + periodic COMMIT); ``stable=True`` models
NFSv2-era synchronous writes.
"""

from dataclasses import dataclass, field

from repro.apps.nfs.client import NfsMount

#: Bytes per write record.
RECORD_BYTES = 16384


@dataclass
class IozoneConfig:
    threads: int = 4
    ops_per_thread: int = 50
    rewrite: bool = True
    pipeline: int = 4
    stable: bool = False
    commit_every: int = 8


@dataclass
class IozoneResults:
    """Per-RPC completion log: (timestamp, thread, op, latency)."""

    operations: list = field(default_factory=list)
    threads_done: int = 0

    def record(self, ts, thread, op, latency):
        self.operations.append((ts, thread, op, latency))

    @property
    def count(self):
        return len(self.operations)

    def latencies(self, op=None):
        return [
            latency
            for _, _, record_op, latency in self.operations
            if op is None or record_op == op
        ]

    @property
    def mean_latency(self):
        values = self.latencies()
        return sum(values) / len(values) if values else 0.0


def spawn_iozone(node, server, config, results):
    """Start ``config.threads`` iozone threads on ``node`` against ``server``.

    Returns the spawned tasks; each logs per-RPC latencies into
    ``results`` and bumps ``threads_done`` on completion.
    """
    tasks = []
    for thread_id in range(config.threads):
        path = "/data/{}/file{}".format(node.name, thread_id)
        tasks.append(
            node.spawn(
                "iozone-{}-t{}".format(node.name, thread_id),
                _iozone_thread, server, config, results, thread_id, path,
            )
        )
    return tasks


def _iozone_thread(ctx, server, config, results, thread_id, path):
    mount = NfsMount(
        ctx, server, pipeline=config.pipeline,
        on_complete=lambda ts, op, _path, latency: results.record(
            ts, thread_id, op, latency
        ),
    )
    yield from mount.connect()
    yield from mount.lookup(path)
    passes = 2 if config.rewrite else 1
    for _pass in range(passes):
        since_commit = 0
        for op in range(config.ops_per_thread):
            offset = op * RECORD_BYTES
            yield from mount.write(path, offset, RECORD_BYTES, stable=config.stable)
            since_commit += 1
            if not config.stable and since_commit >= config.commit_every:
                yield from mount.commit(path)
                since_commit = 0
        if config.stable:
            yield from mount.drain()
        elif since_commit:
            yield from mount.commit(path)
    yield from mount.close()
    results.threads_done += 1
    return mount.mean_latency
