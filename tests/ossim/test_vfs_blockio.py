"""VFS page cache and block layer behaviour."""

import pytest

from repro.cluster import Cluster
from repro.ossim.vfs import _contiguous_runs


@pytest.fixture
def node():
    return Cluster(seed=5).add_node("store", with_disk=True)


def _run(node, fn, *args):
    task = node.spawn("fsuser", fn, *args)
    node.sim.run()
    return task.exit_value


def test_write_then_read_hits_cache(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.write(handle, 8192, offset=0)
        t0 = ctx.now
        yield from ctx.read(handle, 8192, offset=0)
        return ctx.now - t0

    elapsed = _run(node, worker)
    assert elapsed < 1e-3  # no disk access
    assert node.kernel.disk.reads == 0
    assert node.kernel.vfs.cache_misses == 0


def test_cold_read_goes_to_disk(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        handle.inode.size = 65536  # pre-existing data
        yield from ctx.read(handle, 16384, offset=0)

    _run(node, worker)
    assert node.kernel.disk.reads == 1
    assert node.kernel.vfs.cache_misses == 4  # 4 pages


def test_contiguous_misses_coalesce_into_one_request(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        handle.inode.size = 1 << 20
        yield from ctx.read(handle, 1 << 20, offset=0)

    _run(node, worker)
    assert node.kernel.disk.reads == 1


def test_sync_write_blocks_on_media(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        t0 = ctx.now
        yield from ctx.write(handle, 16384, offset=0, sync=True)
        return ctx.now - t0

    elapsed = _run(node, worker)
    assert elapsed > 5e-3  # seek + rotation dominate
    assert node.kernel.disk.writes == 1


def test_unstable_write_is_fast_until_fsync(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        t0 = ctx.now
        for index in range(4):
            yield from ctx.write(handle, 16384, offset=index * 16384)
        cached = ctx.now - t0
        pages = yield from ctx.fsync(handle)
        return cached, pages

    cached, pages = _run(node, worker)
    assert cached < 1e-3
    assert pages == 16  # 64 KB dirty = 16 pages flushed
    assert node.kernel.disk.writes == 1  # one coalesced flush


def test_fsync_resets_dirty_state(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.write(handle, 4096, offset=0)
        first = yield from ctx.fsync(handle)
        second = yield from ctx.fsync(handle)
        return first, second

    first, second = _run(node, worker)
    assert first == 1 and second == 0


def test_sequential_positioning_discount(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        t0 = ctx.now
        yield from ctx.write(handle, 4096, offset=0, sync=True)
        first = ctx.now - t0
        t1 = ctx.now
        yield from ctx.write(handle, 4096, offset=4096, sync=True)
        second = ctx.now - t1
        return first, second

    first, second = _run(node, worker)
    assert second < first / 5  # contiguous write skips seek + rotation


def test_eviction_writes_back_dirty_pages():
    cluster = Cluster(seed=6)
    node = cluster.add_node("small", with_disk=True, cache_pages=8)

    def worker(ctx):
        handle = yield from ctx.open("/f")
        for index in range(32):
            yield from ctx.write(handle, 4096, offset=index * 4096)

    node.spawn("w", worker)
    cluster.run()
    assert node.kernel.vfs.writeback_pages >= 24
    assert node.kernel.disk.writes > 0


def test_fsync_keeps_pages_evicted_while_it_waits_out_of_the_cache():
    """A writer that evicts the fsynced file's pages while the flush is
    on the disk must not see them come back as clean pages past the cap."""
    cluster = Cluster(seed=6)
    node = cluster.add_node("small", with_disk=True, cache_pages=8)
    vfs = node.kernel.vfs

    def syncer(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.write(handle, 8 * 4096, offset=0)
        return (yield from ctx.fsync(handle))

    def writer(ctx):
        handle = yield from ctx.open("/g")
        yield from ctx.sleep(1e-3)  # the flush of /f is on the disk by now
        yield from ctx.write(handle, 8 * 4096, offset=0)

    task = node.spawn("a", syncer)
    node.spawn("b", writer)
    cluster.run()
    assert task.exit_value == 8
    pages = vfs.cache_stats()["pages"]
    assert pages <= vfs.cache_pages
    assert not [key for key in vfs._cache if key[0] == "/f"]
    assert vfs.cache_stats()["dirty"] == 8  # all of /g, still unflushed


def test_file_position_advances(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.write(handle, 100)
        yield from ctx.write(handle, 100)
        return handle.position, handle.inode.size

    position, size = _run(node, worker)
    assert position == 200 and size == 200


def test_read_clamped_to_file_size(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.write(handle, 100, offset=0)
        count = yield from ctx.read(handle, 1000, offset=0)
        return count

    assert _run(node, worker) == 100


def test_closed_handle_rejected(node):
    from repro.sim import SimError

    def worker(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.close_file(handle)
        try:
            yield from ctx.read(handle, 10)
        except SimError:
            return "rejected"

    assert _run(node, worker) == "rejected"


def test_open_missing_without_create(node):
    from repro.sim import SimError

    def worker(ctx):
        try:
            yield from ctx.open("/missing", create=False)
        except SimError:
            return "missing"

    assert _run(node, worker) == "missing"


def test_vfs_absent_without_disk():
    from repro.sim import SimError

    cluster = Cluster(seed=1)
    node = cluster.add_node("nodisk")

    def worker(ctx):
        try:
            yield from ctx.open("/f")
        except SimError:
            return "no-vfs"

    task = node.spawn("w", worker)
    cluster.run()
    assert task.exit_value == "no-vfs"


def test_disk_queue_depth_stats(node):
    def worker(ctx, index):
        handle = yield from ctx.open("/f{}".format(index))
        yield from ctx.write(handle, 16384, offset=0, sync=True)

    for index in range(4):
        node.spawn("w{}".format(index), worker, index)
    node.sim.run()
    assert node.kernel.disk.queue_stat.maximum >= 2
    assert node.kernel.disk.service_stat.count == 4


def test_task_disk_ops_counter(node):
    def worker(ctx):
        handle = yield from ctx.open("/f")
        yield from ctx.write(handle, 4096, sync=True)
        yield from ctx.fsync(handle)

    task = node.spawn("w", worker)
    node.sim.run()
    assert task.disk_ops == 1  # fsync found nothing dirty


def test_contiguous_runs_helper():
    assert _contiguous_runs([]) == []
    assert _contiguous_runs([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 7), (9, 10)]
