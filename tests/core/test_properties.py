"""Property-based tests for buffer/VM and shard-router invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.despy import RandomStream
from repro.core import (
    BufferManager,
    ShardRouter,
    VOODBConfig,
    VirtualMemoryManager,
)

POLICIES = ["LRU", "FIFO", "LFU", "CLOCK", "GCLOCK", "RANDOM", "MRU", "LRU-2"]


@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(min_value=1, max_value=16),
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
        min_size=1,
        max_size=300,
    ),
)
@settings(max_examples=80, deadline=None)
def test_buffer_never_exceeds_capacity_and_stays_consistent(
    policy, capacity, accesses
):
    config = VOODBConfig(buffsize=capacity, pgrep=policy)
    buf = BufferManager(config, RandomStream(9, "prop"))
    for page, write in accesses:
        outcome = buf.access(page, write)
        # a reported read is always the page just requested
        if not outcome.hit:
            assert outcome.read_page == page
        # residency after access is guaranteed
        assert buf.contains(page)
        assert buf.resident_pages <= capacity
    assert buf.hits + buf.misses == len(accesses)


@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(min_value=2, max_value=12),
    accesses=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_dirty_pages_never_silently_dropped(policy, capacity, accesses):
    """Every write-back victim was dirty when evicted, and at the end the
    dirty residents are exactly the shadow dirty set."""
    config = VOODBConfig(buffsize=capacity, pgrep=policy)
    buf = BufferManager(config, RandomStream(11, "prop"))
    shadow_dirty: set = set()
    for page in accesses:
        write = page % 3 == 0
        outcome = buf.access(page, write)
        for victim in outcome.writeback_pages:
            assert victim in shadow_dirty
            shadow_dirty.discard(victim)
        if write:
            shadow_dirty.add(page)
        # clean evictions are silent: reconcile the shadow set against
        # residency (only resident pages can still be dirty)
        shadow_dirty = {p for p in shadow_dirty if buf.contains(p)}
    assert set(buf.flush()) == shadow_dirty


@given(
    capacity=st.integers(min_value=1, max_value=10),
    accesses=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=200),
    fanout=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_virtual_memory_frame_invariants(capacity, accesses, fanout):
    refs = {p: [(p + k + 1) % 26 for k in range(fanout)] for p in range(26)}
    config = VOODBConfig(buffsize=capacity)
    vm = VirtualMemoryManager(
        config,
        RandomStream(13, "prop"),
        pages_referenced_by_page=lambda page: refs.get(page, []),
        capacity=capacity,
    )
    for page in accesses:
        outcome = vm.access(page)
        assert vm.resident_pages + vm.reserved_pages <= capacity
        # after an access the page is always resident
        assert vm.contains(page)
        # an access never both swap-reads and first-touch... it may do
        # both swap_read and read_page (swapped reservation), but then it
        # must have been reserved before; either way counts are coherent
        if outcome.hit:
            assert outcome.read_page is None and not outcome.swap_read
    assert vm.hits + vm.misses == len(accesses)
    assert vm.swap_ins <= vm.swap_outs


@given(
    capacity=st.integers(min_value=2, max_value=8),
    pages=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_buffer_determinism(capacity, pages):
    """Same access sequence + same seed -> identical outcomes."""

    def run():
        config = VOODBConfig(buffsize=capacity, pgrep="RANDOM")
        buf = BufferManager(config, RandomStream(5, "det"))
        trace = []
        for page in pages:
            outcome = buf.access(page)
            trace.append((outcome.hit, tuple(outcome.writeback_pages)))
        return trace

    assert run() == run()


# ----------------------------------------------------------------------
# Shard-router properties (cluster topology layer)
# ----------------------------------------------------------------------
router_args = dict(
    servers=st.integers(min_value=1, max_value=16),
    placement=st.sampled_from(["hash", "range"]),
    total_pages=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**32),
)


@given(
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=200),
    **router_args,
)
@settings(max_examples=120, deadline=None)
def test_router_maps_every_page_to_exactly_one_live_shard(
    pages, servers, placement, total_pages, seed
):
    router = ShardRouter(servers, placement, total_pages, seed=seed)
    for page in pages:
        primary = router.primary(page)
        assert 0 <= primary < servers
        replicas = router.replicas(page)
        # replication 1: the replica set is exactly the primary
        assert replicas == (primary,)


@given(
    replication=st.integers(min_value=1, max_value=16),
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=100),
    **router_args,
)
@settings(max_examples=100, deadline=None)
def test_router_replica_sets_are_distinct_live_shards(
    replication, pages, servers, placement, total_pages, seed
):
    replication = min(replication, servers)
    router = ShardRouter(
        servers, placement, total_pages, replication=replication, seed=seed
    )
    for page in pages:
        replicas = router.replicas(page)
        assert len(replicas) == replication
        assert len(set(replicas)) == replication  # no duplicate copies
        assert all(0 <= node < servers for node in replicas)
        assert replicas[0] == router.primary(page)


@given(
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=100),
    **router_args,
)
@settings(max_examples=100, deadline=None)
def test_router_placement_is_deterministic_under_a_fixed_seed(
    pages, servers, placement, total_pages, seed
):
    first = ShardRouter(servers, placement, total_pages, seed=seed)
    second = ShardRouter(servers, placement, total_pages, seed=seed)
    for page in pages:
        assert first.primary(page) == second.primary(page)
        assert first.replicas(page) == second.replicas(page)


@given(
    new_servers=st.integers(min_value=1, max_value=16),
    pages=st.lists(st.integers(min_value=0, max_value=5000), max_size=100),
    **router_args,
)
@settings(max_examples=100, deadline=None)
def test_resharding_covers_every_page_with_no_orphans(
    new_servers, pages, servers, placement, total_pages, seed
):
    """After a server-count change every page still has exactly one
    primary inside the new cluster — no orphaned or doubly owned ids."""
    after = ShardRouter(new_servers, placement, total_pages, seed=seed)
    assert after.servers == new_servers
    for page in pages:
        primary = after.primary(page)
        assert 0 <= primary < new_servers
        assert after.replicas(page).count(primary) == 1


@given(
    servers=st.integers(min_value=1, max_value=12),
    total_pages=st.integers(min_value=1, max_value=3000),
)
@settings(max_examples=100, deadline=None)
def test_range_router_partitions_the_extent_contiguously(servers, total_pages):
    """Range placement assigns monotonically increasing shards over the
    page extent and covers every shard when pages are plentiful."""
    router = ShardRouter(servers, "range", total_pages)
    owners = [router.primary(page) for page in range(total_pages)]
    assert owners == sorted(owners)  # contiguous runs, never interleaved
    if total_pages >= servers:
        assert set(owners) == set(range(servers))
    # pages appended past the extent (inserts) land on the last shard
    assert router.primary(total_pages + 10) == servers - 1
