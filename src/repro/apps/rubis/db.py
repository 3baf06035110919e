"""The RUBiS database tier: a simple query server over the VFS."""

DB_PORT = 3306

#: CPU to parse one query and plan it.
QUERY_PARSE_COST = 60e-6


class DbServer:
    """Accepts connections from servlets; one handler task per connection."""

    #: The acceptor task's name; handlers are ``mysqld-h<index>``.
    name = "mysqld"
    #: Size of the tables file, warmed into the page cache at start.
    working_set_bytes = 4 << 20

    def __init__(self, node, port=DB_PORT):
        if node.kernel.vfs is None:
            raise ValueError("DB node {} needs with_disk=True".format(node.name))
        self.node = node
        self.port = port
        self.queries = 0
        self.reads = 0
        self.writes = 0
        self.task = None

    def start(self):
        self.task = self.node.spawn(self.name, self._acceptor)
        return self

    def _acceptor(self, ctx):
        # Listen before the warm-up scan so early connections queue in the
        # backlog instead of being refused.
        lsock = yield from ctx.listen(self.port)
        # Pre-existing tables: size the file and warm the page cache with
        # one sequential scan (a single coalesced disk read).
        handle = yield from ctx.open("/var/lib/rubis/tables.db")
        handle.inode.size = self.working_set_bytes
        yield from ctx.read(handle, self.working_set_bytes, offset=0)
        yield from ctx.close_file(handle)
        index = 0
        while True:
            sock = yield from ctx.accept(lsock)
            ctx.spawn("{}-h{}".format(self.name, index), self._handler, sock)
            index += 1

    def _handler(self, ctx, sock):
        handle = yield from ctx.open("/var/lib/rubis/tables.db")
        while True:
            query = yield from ctx.recv_message(sock)
            if query is None:
                break
            meta = query.meta or {}
            self.queries += 1
            yield from ctx.compute(QUERY_PARSE_COST + meta.get("db_cpu", 100e-6))
            nbytes = meta.get("db_bytes", 2048)
            offset = (self.queries * 7919 * 4096) % self.working_set_bytes
            if meta.get("db_op") == "write":
                self.writes += 1
                yield from ctx.write(handle, nbytes, offset=offset, sync=False)
                reply_bytes = 96
            else:
                self.reads += 1
                yield from ctx.read(handle, nbytes, offset=offset)
                reply_bytes = 96 + nbytes
            yield from ctx.send_message(sock, reply_bytes, kind="db-reply", meta=meta)

    def stats(self):
        return {"queries": self.queries, "reads": self.reads, "writes": self.writes}
