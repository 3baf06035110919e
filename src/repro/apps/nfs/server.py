"""The back-end NFS server: a kernel daemon (nfsd).

"Since the NFS server ran as kernel daemon, no time was spent by the
request at the user level" (§3.2) — nfsd tasks run in ``BAND_KERNEL``
and all their CPU is system time; their disk waits are kernel-level time
in SysProf's accounting.  Writes are *stable* (NFSv2 semantics / NFSv3
with ``stable=True``): the reply is not sent until the data is on the
platter, which is why the back-end dominates end-to-end latency
(Figure 5).
"""

from repro.apps.nfs import protocol
from repro.ossim.task import BAND_KERNEL

#: Kernel CPU to decode + dispatch one NFS call.
PARSE_COST = 25e-6


class NfsServer:
    """nfsd on one storage node (requires the node to have a disk)."""

    def __init__(self, node, port=protocol.NFS_PORT, name="nfsd"):
        self.node = node
        self.port = port
        self.name = name
        self.ops = {op: 0 for op in protocol.ALL_OPS}
        self.bytes_written = 0
        self.bytes_read = 0
        self.task = None

    def start(self):
        self.task = self.node.spawn(
            self.name, self._acceptor, band=BAND_KERNEL
        )
        return self

    def _acceptor(self, ctx):
        lsock = yield from ctx.listen(self.port)
        conn_index = 0
        while True:
            sock = yield from ctx.accept(lsock)
            # One nfsd thread per connection.  Its name, thread index 0
            # included, is the server_name of every interaction it serves.
            ctx.spawn(
                "{}-{}-0".format(self.name, conn_index),
                self._nfsd, sock, band=BAND_KERNEL,
            )
            conn_index += 1

    def _nfsd(self, ctx, sock):
        while True:
            request = yield from ctx.recv_message(sock)
            if request is None:
                break
            yield from ctx.kcompute(PARSE_COST)
            meta = request.meta or {}
            op = meta.get("op", protocol.OP_GETATTR)
            self.ops[op] = self.ops.get(op, 0) + 1
            reply_bytes = protocol.REPLY_OVERHEAD
            if op == protocol.OP_WRITE:
                handle = yield from ctx.open(meta["path"])
                yield from ctx.write(
                    handle, meta["len"], offset=meta["offset"],
                    sync=meta.get("stable", True),
                )
                yield from ctx.close_file(handle)
                self.bytes_written += meta["len"]
            elif op == protocol.OP_READ:
                handle = yield from ctx.open(meta["path"])
                yield from ctx.read(handle, meta["len"], offset=meta["offset"])
                yield from ctx.close_file(handle)
                self.bytes_read += meta["len"]
                reply_bytes = protocol.reply_size(op, meta["len"])
            elif op == protocol.OP_COMMIT:
                handle = yield from ctx.open(meta["path"])
                yield from ctx.fsync(handle)
                yield from ctx.close_file(handle)
            # LOOKUP/GETATTR: metadata ops, parse cost only.
            yield from ctx.send_message(sock, reply_bytes, kind=op, meta=meta)

    def stats(self):
        return {
            "ops": dict(self.ops),
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "disk": {
                "writes": self.node.kernel.disk.writes,
                "reads": self.node.kernel.disk.reads,
                "busy_time": self.node.kernel.disk.busy_time,
            },
        }
