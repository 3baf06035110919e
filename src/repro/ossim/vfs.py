"""Virtual filesystem with an LRU page cache over the block layer."""

from collections import OrderedDict, defaultdict

from repro.sim.errors import SimError
from repro.ossim import tracepoints as tp


class Inode:
    __slots__ = ("path", "size", "created_at")

    def __init__(self, path, now):
        self.path = path
        self.size = 0
        self.created_at = now


class FileHandle:
    __slots__ = ("inode", "fd", "position", "task_pid", "closed")

    def __init__(self, inode, fd, task_pid):
        self.inode = inode
        self.fd = fd
        self.position = 0
        self.task_pid = task_pid
        self.closed = False


class Vfs:
    """Files, the page cache, and read/write/fsync semantics.

    Writes are write-back by default: pages are dirtied in the cache and
    flushed on ``fsync`` or eviction.  ``sync=True`` writes (the NFS
    server's stable writes) block on the media.  All generator methods
    run inside a task's syscall and charge CPU to that task.
    """

    PAGE = 4096

    def __init__(self, kernel, disk, costs, cache_pages=8192):
        self.kernel = kernel
        self.disk = disk
        self.costs = costs
        self.cache_pages = cache_pages
        self.inodes = {}
        self._handles = {}
        self._next_fd = 3
        # (path, page_index) -> dirty flag; OrderedDict gives LRU order.
        self._cache = OrderedDict()
        # path -> set of that file's dirty page indexes, changed wherever
        # a flag above changes, so fsync never scans the whole cache.
        self._dirty = defaultdict(set)
        self.cache_hits = 0
        self.cache_misses = 0
        self.writeback_pages = 0

    # ------------------------------------------------------------------

    def _submit(self, task, base, etype):
        """Charge ``base`` plus the probe cost for one firing of ``etype``,
        attributing the base work to the block-I/O ledger category."""
        kernel = self.kernel
        cost, probe, analyzer, _ = kernel.tracepoints.site((etype,))
        cost = base + cost
        attribution = None
        if kernel.ledger is not None:
            attribution = ("blockio", base, probe, analyzer)
        return kernel.cpu.submit(task, cost, "kernel", attribution=attribution)

    def open(self, task, path, create=True):
        inode = self.inodes.get(path)
        if inode is None:
            if not create:
                raise SimError("no such file: {}".format(path))
            inode = Inode(path, self.kernel.sim.now)
            self.inodes[path] = inode
        handle = FileHandle(inode, self._next_fd, task.pid)
        self._next_fd += 1
        self._handles[handle.fd] = handle
        yield self._submit(task, self.costs.fs_op, tp.FS_OPEN)
        self.kernel.tracepoints.fire(tp.FS_OPEN, pid=task.pid, path=path, fd=handle.fd)
        return handle

    def read(self, task, handle, nbytes, offset=None):
        if handle.closed:
            raise SimError("read on closed fd {}".format(handle.fd))
        inode = handle.inode
        position = handle.position if offset is None else offset
        nbytes = max(0, min(nbytes, inode.size - position))
        pages = self._page_range(position, nbytes)
        missing = [p for p in pages if (inode.path, p) not in self._cache]
        self.cache_hits += len(pages) - len(missing)
        self.cache_misses += len(missing)
        for first, last in _contiguous_runs(missing):
            count = last - first + 1
            yield self._submit(task, self.costs.blk_issue, tp.BLK_ISSUE)
            task.disk_ops += 1
            yield from self.kernel.block_wait(task, self.disk.submit(
                "read", first * self.PAGE, count * self.PAGE))
            for page in range(first, last + 1):
                self._insert_page(inode.path, page, dirty=False)
        copy = self.costs.fs_op + self.costs.page_copy * max(1, len(pages))
        yield self._submit(task, copy, tp.FS_READ)
        for page in pages:
            self._touch(inode.path, page)
        if offset is None:
            handle.position += nbytes
        self.kernel.tracepoints.fire(
            tp.FS_READ, pid=task.pid, path=inode.path, nbytes=nbytes, offset=position
        )
        return nbytes

    def write(self, task, handle, nbytes, offset=None, sync=False):
        if handle.closed:
            raise SimError("write on closed fd {}".format(handle.fd))
        inode = handle.inode
        position = handle.position if offset is None else offset
        pages = self._page_range(position, nbytes)
        copy = self.costs.fs_op + self.costs.page_copy * max(1, len(pages))
        yield self._submit(task, copy, tp.FS_WRITE)
        for page in pages:
            self._insert_page(inode.path, page, dirty=not sync)
        inode.size = max(inode.size, position + nbytes)
        if offset is None:
            handle.position += nbytes
        self.kernel.tracepoints.fire(
            tp.FS_WRITE, pid=task.pid, path=inode.path, nbytes=nbytes,
            offset=position, sync=sync,
        )
        if sync and pages:
            yield self._submit(task, self.costs.blk_issue, tp.BLK_ISSUE)
            task.disk_ops += 1
            yield from self.kernel.block_wait(task, self.disk.submit(
                "write", pages[0] * self.PAGE, len(pages) * self.PAGE))
        return nbytes

    def fsync(self, task, handle):
        path = handle.inode.path
        dirty = sorted(self._dirty.get(path, ()))
        yield self._submit(task, self.costs.fs_op, tp.FS_FSYNC)
        cache = self._cache
        for first, last in _contiguous_runs(dirty):
            count = last - first + 1
            yield self._submit(task, self.costs.blk_issue, tp.BLK_ISSUE)
            task.disk_ops += 1
            yield from self.kernel.block_wait(task, self.disk.submit(
                "write", first * self.PAGE, count * self.PAGE))
            # A concurrent writer may have evicted some of these pages
            # while the disk ran: only pages still cached are marked clean.
            pages = self._dirty[path]
            for page in range(first, last + 1):
                key = (path, page)
                if key in cache:
                    cache[key] = False
                pages.discard(page)
        self.writeback_pages += len(dirty)
        self.kernel.tracepoints.fire(
            tp.FS_FSYNC, pid=task.pid, path=path, pages=len(dirty)
        )
        return len(dirty)

    def close(self, task, handle):
        handle.closed = True
        self._handles.pop(handle.fd, None)
        yield self._submit(task, self.costs.fs_op, tp.FS_CLOSE)
        self.kernel.tracepoints.fire(tp.FS_CLOSE, pid=task.pid, path=handle.inode.path)

    # ------------------------------------------------------------------

    def _page_range(self, offset, nbytes):
        if nbytes <= 0:
            return []
        first = offset // self.PAGE
        last = (offset + nbytes - 1) // self.PAGE
        return list(range(first, last + 1))

    def _insert_page(self, path, page, dirty):
        key = (path, page)
        cache = self._cache
        if dirty:
            self._dirty[path].add(page)
        if key in cache:
            if dirty:
                cache[key] = True
            cache.move_to_end(key)
            return
        cache[key] = dirty
        if len(cache) > self.cache_pages:
            (old_path, old_page), was_dirty = cache.popitem(last=False)
            if was_dirty:
                self._dirty[old_path].discard(old_page)
                # Asynchronous writeback; nobody waits on eviction flushes.
                self.writeback_pages += 1
                self.disk.submit("write", old_page * self.PAGE, self.PAGE).defuse()

    def _touch(self, path, page):
        key = (path, page)
        if key in self._cache:
            self._cache.move_to_end(key)

    def cache_stats(self):
        dirty = sum(len(pages) for pages in self._dirty.values())
        return {
            "pages": len(self._cache),
            "dirty": dirty,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "writeback": self.writeback_pages,
        }


def _contiguous_runs(sorted_values):
    """Group a sorted integer list into (first, last) inclusive runs."""
    runs = []
    for value in sorted_values:
        if runs and value == runs[-1][1] + 1:
            runs[-1][1] = value
        else:
            runs.append([value, value])
    return [(first, last) for first, last in runs]
