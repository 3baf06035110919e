"""Select-style multiplexing for single-threaded server tasks.

The paper's NFS proxy (and Apache front-end) are single user-level
processes multiplexing many connections — the very reason requests queue
at kernel level when the process falls behind (Figure 4).  The
:class:`Selector` lets one task wait on many sources (socket receive
queues, listener backlogs) with persistent getters, so no item is ever
consumed by an abandoned waiter.
"""


class Selector:
    """Round-robin multiplexer over message/connection sources."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._sources = {}  # key -> (store, pending_waitable, is_socket)
        self._order = []
        self._rr = 0

    def add_socket(self, key, sock):
        """Watch a connected socket's receive queue."""
        self._sources[key] = [sock.rx_queue, sock.rx_queue.get(), sock]
        self._order.append(key)

    def add_listener(self, key, lsock):
        """Watch a listening socket's accept backlog."""
        self._sources[key] = [lsock.backlog, lsock.backlog.get(), None]
        self._order.append(key)

    def remove(self, key):
        if key in self._sources:
            del self._sources[key]
            self._order.remove(key)

    def __len__(self):
        return len(self._sources)

    def select(self):
        """Generator: block until a source is ready; returns ``(key, item)``.

        For socket sources the item is a completed message (``None`` on
        peer close) and full receive accounting (copy cost, SOCK_DELIVER
        event, flow-control credit return) is applied.  For listener
        sources the item is the newly accepted socket.
        """
        ctx = self.ctx
        if not self._sources:
            raise ValueError("select() on an empty selector")
        while True:
            # Round-robin scan for an already-ready source.
            n = len(self._order)
            for step in range(n):
                key = self._order[(self._rr + step) % n]
                store, pending, sock = self._sources[key]
                if pending.triggered:
                    self._rr = (self._rr + step + 1) % n
                    item = pending.value
                    self._sources[key][1] = store.get()
                    if sock is not None:
                        yield from ctx._sys_enter("recv")
                        item = yield from ctx._deliver(sock, item)
                    else:
                        item.owner_pid = ctx.task.pid
                        yield from ctx._sys_enter("accept")
                        yield from ctx._sys_exit("accept")
                    return key, item
            waitables = [entry[1] for entry in self._sources.values()]
            yield from ctx.wait(ctx.sim.any_of(waitables), reason="select")
