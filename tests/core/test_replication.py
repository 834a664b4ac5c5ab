"""Property tests for the async-replication quorum arithmetic.

The consistency spectrum hangs on two laws:

* **Quorum intersection** — whenever ``R + W > replication`` every read
  quorum overlaps the last write quorum, so a quorum read can never
  serve a stale copy no matter how the applies interleave.
* **Monotone acks** — appliers acknowledge in apply order, so the
  committed version of a page never moves backwards, and once the event
  loop drains every enqueued apply has landed: committed == enqueued on
  every page and no replica sits behind the commit point.

Both are exercised against the real :class:`~repro.core.cluster.Cluster`
driving full replications, not a toy model.

The read side is pinned at the ``Cluster`` level too: the session
guarantees' fallback to the primary, and a differential test of the one
quorum consultation (``Cluster._consult_replicas``) against the two
loops it replaced, kept here as references.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrivalConfig, ClusterConfig, VOODBConfig
from repro.core.failures import FaultConfig, RetryConfig
from repro.core.model import VOODBSimulation
from repro.core.parameters import ReplicationConfig
from repro.despy import Hold
from repro.systems.o2 import o2_config
from tests.core.nowait import as_process


def async_config(
    replication: int,
    read_quorum: int,
    write_quorum: int,
    apply_delay_ms: float = 2.0,
) -> VOODBConfig:
    return o2_config(nc=10, no=500, cache_mb=0.25, hotn=25).with_changes(
        cluster=ClusterConfig(
            servers=3,
            placement="hash",
            replication=replication,
            interconnect_mbps=math.inf,
        ),
        replication=ReplicationConfig(
            mode="async",
            read_quorum=read_quorum,
            write_quorum=write_quorum,
            apply_delay_ms=apply_delay_ms,
        ),
        arrivals=ArrivalConfig(mode="poisson", rate_tps=60.0),
        multilvl=8,
        ocb=o2_config().ocb.with_changes(
            nc=10, no=500, hotn=25, pwrite=0.4
        ),
    )


def run_model(config: VOODBConfig, seed: int) -> VOODBSimulation:
    model = VOODBSimulation(config, seed=seed)
    model.run()
    return model


#: Every (replication, R, W) triple on 3 servers satisfying the
#: intersection law R + W > N.
INTERSECTING = [
    (n, r, w)
    for n in (2, 3)
    for r in range(1, n + 1)
    for w in range(1, n + 1)
    if r + w > n
]

#: Triples that leave a staleness window open (R + W <= N).
NON_INTERSECTING = [
    (n, r, w)
    for n in (2, 3)
    for r in range(1, n + 1)
    for w in range(1, n + 1)
    if r + w <= n
]


class TestQuorumIntersection:
    @given(
        triple=st.sampled_from(INTERSECTING),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=12, deadline=None)
    def test_intersecting_quorums_never_read_stale(self, triple, seed):
        n, r, w = triple
        model = run_model(async_config(n, r, w), seed)
        cluster = model.cluster
        assert cluster.replica_applies > 0, "async applies must happen"
        assert cluster.stale_reads == 0, (
            f"R={r}, W={w} over {n} copies intersects every write quorum "
            f"yet served {cluster.stale_reads} stale reads"
        )

    def test_non_intersecting_window_is_observable(self):
        # Sanity for the property above: with R=W=1 the same workload
        # does read into the staleness window (the counter is not
        # trivially zero).
        assert NON_INTERSECTING, "3-server space has non-intersecting pairs"
        model = run_model(async_config(3, 1, 1, apply_delay_ms=5.0), seed=2)
        assert model.cluster.stale_reads > 0


class TestMonotoneAcks:
    @given(
        triple=st.sampled_from(INTERSECTING + NON_INTERSECTING),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=12, deadline=None)
    def test_drained_cluster_has_committed_everything(self, triple, seed):
        """Acks fire in apply order, so when the event loop drains every
        page's committed version has caught the last enqueued version
        and no replica is behind the commit point."""
        n, r, w = triple
        model = run_model(async_config(n, r, w), seed)
        cluster = model.cluster
        assert cluster._version, "write-heavy run must version pages"
        for node in cluster.nodes:
            assert not node.apply_queue, "appliers must drain at quiesce"
        for page, version in cluster._version.items():
            assert cluster._committed.get(page) == version
            # Every replica holding the page has applied the final
            # version — an older apply can never overwrite a newer one.
            for index in cluster.router.replicas(page):
                assert cluster.nodes[index].applied.get(page) == version

    def test_wider_write_quorum_acks_no_earlier(self):
        """W is monotone: raising the write quorum can only add ack
        waits, never remove them — total commit work grows with W."""
        lags = []
        for w in (1, 2, 3):
            model = run_model(async_config(3, 1, w), seed=9)
            lags.append(model.cluster.replica_lag_ticks)
            assert model.cluster.replica_applies > 0
        # Apply traffic is identical (every replica applies every write);
        # the W knob only changes who waits, so lag stays comparable
        # while the response-time cost is borne by the writers.
        assert all(lag > 0 for lag in lags)


# ----------------------------------------------------------------------
# Session guarantees: a behind replica falls back to the primary
# ----------------------------------------------------------------------
def guarantee_model(read_your_writes=False, monotonic_reads=False):
    """An async 3-copy cluster with R = W = 1 and the given guarantees."""
    config = async_config(3, 1, 1).with_changes(
        replication=ReplicationConfig(
            mode="async",
            read_your_writes=read_your_writes,
            monotonic_reads=monotonic_reads,
        )
    )
    return VOODBSimulation(config, seed=1)


def _behind_replica_page(cluster, primary_version=2, replica_version=1):
    """A page whose primary holds ``primary_version`` while the replica
    the next read is routed to holds only ``replica_version``."""
    page = 0
    owners = cluster.router.replicas(page)
    cluster._version[page] = primary_version
    cluster.nodes[owners[0]].applied[page] = primary_version
    for replica in owners[1:]:
        cluster.nodes[replica].applied[page] = replica_version
    # Round-robin routing: the next read goes to the first replica.
    cluster._rr = 1
    return page, owners


def _accesses(cluster, owners):
    return [cluster.nodes[owner].accesses for owner in owners]


class TestSessionGuarantees:
    def test_unguaranteed_read_serves_the_behind_replica(self):
        cluster = guarantee_model().cluster
        page, owners = _behind_replica_page(cluster)
        cluster.serve_page_nowait(page, False)
        assert _accesses(cluster, owners) == [0, 1, 0]
        assert cluster._served[page] == 1

    def test_read_your_writes_falls_back_to_the_primary(self):
        cluster = guarantee_model(read_your_writes=True).cluster
        page, owners = _behind_replica_page(cluster)
        cluster.serve_page_nowait(page, False)
        assert _accesses(cluster, owners) == [1, 0, 0]
        assert cluster._served[page] == 2

    def test_read_your_writes_keeps_a_caught_up_replica(self):
        cluster = guarantee_model(read_your_writes=True).cluster
        page, owners = _behind_replica_page(cluster, replica_version=2)
        cluster.serve_page_nowait(page, False)
        assert _accesses(cluster, owners) == [0, 1, 0]

    def test_monotonic_reads_never_go_below_the_served_floor(self):
        cluster = guarantee_model(monotonic_reads=True).cluster
        page, owners = _behind_replica_page(cluster)
        cluster._served[page] = 2
        cluster.serve_page_nowait(page, False)
        assert _accesses(cluster, owners) == [1, 0, 0]

    def test_monotonic_reads_ignore_unserved_writes(self):
        # The floor is what earlier reads served, not the latest write.
        cluster = guarantee_model(monotonic_reads=True).cluster
        page, owners = _behind_replica_page(cluster)
        cluster._served[page] = 1
        cluster.serve_page_nowait(page, False)
        assert _accesses(cluster, owners) == [0, 1, 0]

    @pytest.mark.parametrize(
        "guarantee", ["read_your_writes", "monotonic_reads"]
    )
    def test_down_primary_defers_the_read_to_its_recovery(self, guarantee):
        model = guarantee_model(**{guarantee: True})
        cluster = model.cluster
        page, owners = _behind_replica_page(cluster)
        cluster._served[page] = 2
        recovery = 1_000
        cluster.nodes[owners[0]].down_until = recovery
        model.sim.process(as_process(cluster.serve_page_nowait, page, False))
        model.sim.run(until=recovery - 1)
        assert _accesses(cluster, owners) == [0, 0, 0]
        model.sim.run()
        # Served afresh at the recovery tick: the retried read routes to
        # the next replica, which is behind too, so the primary serves.
        assert _accesses(cluster, owners) == [1, 0, 0]
        assert cluster._rr == 3
        assert cluster._served[page] == 2


# ----------------------------------------------------------------------
# One consultation: the folded ring walk == the two loops it replaced
# ----------------------------------------------------------------------
def _reference_read_target(cluster, page, owners, consulted, now):
    """The freshest consulted replica, then the session guarantees."""
    nodes = cluster.nodes
    target = consulted[0]
    best_version = nodes[target].applied.get(page, 0)
    for candidate in consulted[1:]:
        version = nodes[candidate].applied.get(page, 0)
        if version > best_version:
            target, best_version = candidate, version
    rep = cluster.replication_config
    required = 0
    if rep.read_your_writes:
        required = cluster._version.get(page, 0)
    if rep.monotonic_reads:
        floor = cluster._served.get(page, 0)
        if floor > required:
            required = floor
    if required and best_version < required:
        primary = cluster._leader.get(page, owners[0])
        if nodes[primary].down_until > now:
            return None, best_version
        target = primary
    return target, best_version


def _reference_consultation(cluster, page, owners, target, now):
    """The quorum consultation without the fault layer: crashed
    replicas are skipped silently."""
    rep = cluster.replication_config
    nodes = cluster.nodes
    probes = 0
    consulted = [target]
    if rep.read_quorum > 1 and len(owners) > 1:
        start = owners.index(target)
        for offset in range(1, len(owners)):
            if len(consulted) >= rep.read_quorum:
                break
            candidate = owners[(start + offset) % len(owners)]
            if nodes[candidate].down_until <= now:
                consulted.append(candidate)
        probes = 2 * (len(consulted) - 1)
    target, _version = _reference_read_target(
        cluster, page, owners, consulted, now
    )
    return target, probes, 0, None


def _reference_consultation_fault(cluster, page, owners, target, now):
    """The quorum consultation under the retry contract, with
    read-repair of the consulted replicas behind the freshest."""
    rep = cluster.replication_config
    nodes = cluster.nodes
    probes = 0
    penalty = 0
    repair = None
    consulted = [target]
    if rep.read_quorum > 1 and len(owners) > 1:
        rng = nodes[target].retry_stream
        start = owners.index(target)
        for offset in range(1, len(owners)):
            if len(consulted) >= rep.read_quorum:
                break
            candidate = owners[(start + offset) % len(owners)]
            cluster._gray_probe(nodes[candidate])
            ok, cost = cluster._retry_outcome(
                target, candidate, rng, now + penalty
            )
            penalty += cost
            if ok:
                consulted.append(candidate)
            else:
                cluster.abandoned_reads += 1
        probes = 2 * (len(consulted) - 1)
    target, best_version = _reference_read_target(
        cluster, page, owners, consulted, now
    )
    stale = [
        c for c in consulted if nodes[c].applied.get(page, 0) < best_version
    ]
    if stale:
        cluster.read_repairs += len(stale)
        repair = cluster._read_repair(page, best_version, stale)
    return target, probes, penalty, repair


#: The consultation instant: late enough for gray probes to draw.
_NOW = 2_000_000
_FAR = 10**15


#: A node's ``down_until``: up, on either side of the instant, back
#: within a retry ladder, or down for good.
_DOWN_UNTIL = (0, _NOW, _NOW + 1, _NOW + 3_000_000, _FAR)


def _idle(ticks):
    yield Hold(ticks)


def _consult_cluster(state):
    """A 3-server async cluster at tick ``_NOW`` in the drawn state."""
    replication = state["replication"]
    faults = (
        FaultConfig(
            partition_mtbf_ms=200.0,
            partition_heal_ms=60.0,
            gray_mtbf_ms=3.0,
            election_delay_ms=5.0,
        )
        if state["faults"]
        else FaultConfig()
    )
    config = async_config(replication, 1, 1).with_changes(
        cluster=ClusterConfig(
            servers=3, replication=replication, interconnect_mbps=25.0
        ),
        replication=ReplicationConfig(
            mode="async",
            read_quorum=min(state["read_quorum"], replication),
            read_your_writes=state["read_your_writes"],
            monotonic_reads=state["monotonic_reads"],
        ),
        faults=faults,
        retry=RetryConfig(timeout_ms=5.0, max_retries=2, backoff_base_ms=2.0)
        if state["faults"]
        else RetryConfig(),
    )
    model = VOODBSimulation(config, seed=state["seed"])
    model.sim.process(_idle(_NOW))
    model.sim.run()
    cluster = model.cluster
    page = state["page"]
    owners = cluster.router.replicas(page)
    for position, owner in enumerate(owners):
        node = cluster.nodes[owner]
        node.applied[page] = state["applied"][position]
        node.down_until = _DOWN_UNTIL[state["down"][position]]
        if state["faults"] and state["gray"][position]:
            node.gray_until = _NOW + 5_000_000
    target = owners[state["target"] % len(owners)]
    cluster.nodes[target].down_until = 0
    cluster._version[page] = max(state["applied"]) + state["unapplied"]
    cluster._served[page] = state["served"]
    if state["faults"]:
        if state["leader"] is not None:
            cluster._leader[page] = owners[state["leader"] % len(owners)]
        if state["partition"]:
            cluster._partition_until = _NOW + 4_000_000
        cluster._gray_timeout_prone = state["gray_timeout_prone"]
    return model, page, owners, target


def _consult_effects(model, page, step):
    """Everything a consultation changed, its repair step driven."""
    cluster = model.cluster
    if step is not None:
        model.sim.process(step)
        model.sim.run()
    return (
        cluster.abandoned_reads,
        cluster.remote_timeouts,
        cluster.remote_retries,
        cluster.read_repairs,
        cluster.gray_episodes,
        model.sim.now,
        cluster.interconnect.messages,
        [
            (
                node.applied.get(page),
                node.gray_until,
                node.gray_last,
                node.memory.contains(page),
                node.io.writes,
                node.gray_stream.random() if node.gray_stream else None,
                node.retry_stream.random() if node.retry_stream else None,
            )
            for node in cluster.nodes
        ],
    )


_OWNER_BITS = st.lists(st.booleans(), min_size=3, max_size=3)


@given(
    state=st.fixed_dictionaries(
        {
            "faults": st.booleans(),
            "replication": st.sampled_from((2, 3)),
            "read_quorum": st.integers(1, 3),
            "read_your_writes": st.booleans(),
            "monotonic_reads": st.booleans(),
            "seed": st.integers(1, 50),
            "page": st.integers(0, 40),
            "applied": st.lists(st.integers(0, 4), min_size=3, max_size=3),
            "down": st.lists(
                st.integers(0, len(_DOWN_UNTIL) - 1), min_size=3, max_size=3
            ),
            "target": st.integers(0, 2),
            "unapplied": st.integers(0, 2),
            "served": st.integers(0, 6),
            "leader": st.one_of(st.none(), st.integers(0, 2)),
            "partition": st.booleans(),
            "gray": _OWNER_BITS,
            "gray_timeout_prone": st.booleans(),
        }
    )
)
@settings(max_examples=300, deadline=None)
def test_one_consultation_matches_the_two_loops(state):
    model, page, owners, target = _consult_cluster(state)
    reference = (
        _reference_consultation_fault
        if state["faults"]
        else _reference_consultation
    )
    *old, old_repair = reference(model.cluster, page, owners, target, _NOW)
    old_effects = _consult_effects(model, page, old_repair)

    model, page, owners, target = _consult_cluster(state)
    *new, new_repair = model.cluster._consult_replicas(
        page, owners, target, _NOW
    )
    new_effects = _consult_effects(model, page, new_repair)

    assert new == old
    assert (new_repair is None) == (old_repair is None)
    assert new_effects == old_effects
