"""Tests for the PR-10 fault-tolerance layer.

Covers the fault kinds (partitions, gray failures), the
timeout/retry/backoff contract, primary re-election, anti-entropy
repair, the eager configuration gates, and the three properties the
layer guarantees:

(a) a healed partition converges — once the end-of-phase anti-entropy
    drain runs, no replica is behind the commit point;
(b) re-election never promotes a stale replica over a fresher
    reachable one;
(c) the retry/backoff ladder is a pure function of the seed and never
    exceeds ``max_retries`` retries.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrivalConfig, ClusterConfig, VOODBConfig
from repro.core.failures import (
    HORIZON_MS,
    MIN_POSITIVE_MS,
    FailureConfig,
    FaultConfig,
    RetryConfig,
    RetryPolicy,
)
from repro.core.model import VOODBSimulation, run_replication
from repro.core.parameters import ReplicationConfig
from repro.despy import RandomStream
from repro.despy.timebase import MS_PER_TICK, TICK_HORIZON, ms_to_ticks
from repro.experiments import SerialExecutor
from repro.experiments.report import format_scenario, scenario_to_json
from repro.scenarios import get_scenario, run_scenario
from repro.systems.o2 import o2_config
from tests.core.nowait import as_process

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: A lively fault plan: frequent partitions, fast elections, a tight
#: anti-entropy cadence — everything observable within a 30-txn phase.
STORM = FaultConfig(
    partition_mtbf_ms=200.0,
    partition_heal_ms=60.0,
    election_delay_ms=5.0,
    repair_interval_ms=50.0,
)

SNAPPY = RetryConfig(timeout_ms=5.0, max_retries=2, backoff_base_ms=2.0)


def fault_config(faults: FaultConfig = STORM, retry: RetryConfig = SNAPPY,
                 **changes) -> VOODBConfig:
    """A small replicated cluster with the fault layer on."""
    base = o2_config(nc=10, no=500, cache_mb=0.25, hotn=30)
    defaults = dict(
        cluster=ClusterConfig(
            servers=3, replication=3, interconnect_mbps=25.0
        ),
        replication=ReplicationConfig(
            mode="async", read_quorum=2, apply_delay_ms=1.0
        ),
        arrivals=ArrivalConfig(mode="poisson", rate_tps=60.0),
        multilvl=8,
        faults=faults,
        retry=retry,
        ocb=base.ocb.with_changes(pwrite=0.3),
    )
    defaults.update(changes)
    return base.with_changes(**defaults)


# ----------------------------------------------------------------------
# Configuration validation (satellite: eager validation bugfix)
# ----------------------------------------------------------------------
class TestRetryConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("timeout_ms", 0.0),
            ("timeout_ms", -1.0),
            ("timeout_ms", math.nan),
            ("timeout_ms", math.inf),
            ("backoff_base_ms", 0.0),
            ("backoff_base_ms", math.nan),
            ("backoff_multiplier", 0.5),
            ("backoff_multiplier", math.inf),
            ("jitter", -0.1),
            ("jitter", 1.0),
            ("jitter", math.nan),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            RetryConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1, 2.5, "two"])
    def test_max_retries_must_be_nonnegative_int(self, value):
        with pytest.raises(ValueError, match="max_retries"):
            RetryConfig(max_retries=value)

    def test_defaults_are_valid(self):
        RetryConfig()

    @pytest.mark.parametrize(
        "value", [1.0e-9, MS_PER_TICK / 4, MS_PER_TICK / 2]
    )
    def test_rejects_a_sub_tick_timeout(self, value):
        with pytest.raises(ValueError, match=repr(MIN_POSITIVE_MS)):
            RetryConfig(timeout_ms=value)

    def test_smallest_timeout_lasts_one_tick(self):
        config = RetryConfig(timeout_ms=MIN_POSITIVE_MS)
        assert RetryPolicy(config).timeout == 1

    @staticmethod
    def _largest_multiplier(message):
        return float(message.rsplit("largest accepted value is ", 1)[1])

    @pytest.mark.parametrize("max_retries", [2, 3, 6])
    def test_rejects_a_backoff_past_the_tick_horizon(self, max_retries):
        with pytest.raises(ValueError, match="backoff_multiplier") as error:
            RetryConfig(backoff_multiplier=1.0e300, max_retries=max_retries)
        largest = self._largest_multiplier(str(error.value))
        # The largest accepted multiplier itself validates, and its
        # longest backoff (full jitter, before the last retry) stays
        # within the horizon.
        config = RetryConfig(backoff_multiplier=largest, max_retries=max_retries)
        longest = (
            ms_to_ticks(config.backoff_base_ms)
            * largest ** (max_retries - 1)
            * (1.0 + config.jitter)
        )
        assert longest <= TICK_HORIZON * (1 + 1e-9)
        with pytest.raises(ValueError, match="backoff_multiplier"):
            RetryConfig(
                backoff_multiplier=largest * 1.001, max_retries=max_retries
            )

    @pytest.mark.parametrize("max_retries", [0, 1])
    def test_multiplier_is_free_without_a_second_retry(self, max_retries):
        # With at most one retry the multiplier never scales a backoff.
        RetryConfig(backoff_multiplier=1.0e300, max_retries=max_retries)


class TestFaultConfigValidation:
    def test_disabled_by_default(self):
        assert not FaultConfig().enabled
        assert not VOODBConfig().faults.enabled

    @pytest.mark.parametrize(
        "field",
        ["partition_mtbf_ms", "gray_mtbf_ms", "repair_interval_ms"],
    )
    def test_any_rate_enables(self, field):
        assert FaultConfig(**{field: 100.0}).enabled

    @pytest.mark.parametrize(
        "field,value",
        [
            ("partition_mtbf_ms", -1.0),
            ("partition_mtbf_ms", math.nan),
            ("gray_mtbf_ms", math.inf),
            ("repair_interval_ms", -5.0),
            ("partition_heal_ms", 0.0),
            ("partition_heal_ms", math.nan),
            ("gray_heal_ms", 0.0),
            ("gray_slowdown", 0.5),
            ("gray_slowdown", math.nan),
            ("election_delay_ms", -1.0),
            ("election_delay_ms", math.inf),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            FaultConfig(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "partition_mtbf_ms",
            "gray_mtbf_ms",
            "repair_interval_ms",
            "partition_heal_ms",
            "gray_heal_ms",
        ],
    )
    @pytest.mark.parametrize(
        "value", [1.0e-9, MS_PER_TICK / 4, MS_PER_TICK / 2]
    )
    def test_rejects_sub_tick_values(self, field, value):
        # ms_to_ticks would round these to 0 ticks: "never" for a
        # rate, an instant heal for a duration.
        with pytest.raises(ValueError, match=f"{field}.*{MIN_POSITIVE_MS!r}"):
            FaultConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["partition_mtbf_ms", "gray_mtbf_ms", "repair_interval_ms"]
    )
    def test_smallest_positive_value_lasts_one_tick(self, field):
        config = FaultConfig(**{field: MIN_POSITIVE_MS})
        assert config.enabled
        assert ms_to_ticks(getattr(config, field)) == 1

    def test_rejects_a_slowdown_past_the_tick_horizon(self):
        with pytest.raises(
            ValueError, match=f"gray_slowdown.*{HORIZON_MS!r}"
        ):
            FaultConfig(gray_mtbf_ms=200.0, gray_slowdown=1.0e300)
        # A gray millisecond stretched by the largest slowdown lasts
        # exactly up to the horizon.
        config = FaultConfig(gray_mtbf_ms=200.0, gray_slowdown=HORIZON_MS)
        assert ms_to_ticks(config.gray_slowdown) == TICK_HORIZON

    def test_groups_without_partitions_are_inert(self):
        with pytest.raises(ValueError, match="partition_mtbf_ms > 0"):
            FaultConfig(partition_groups=((0,), (1,)))

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match=">= 2 groups"):
            FaultConfig(
                partition_mtbf_ms=100.0, partition_groups=((0, 1),)
            )

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FaultConfig(
                partition_mtbf_ms=100.0, partition_groups=((0,), ())
            )

    @pytest.mark.parametrize("member", [-1, 1.5, "a"])
    def test_bad_member_rejected(self, member):
        with pytest.raises(ValueError, match="node indices"):
            FaultConfig(
                partition_mtbf_ms=100.0,
                partition_groups=((0,), (member,)),
            )

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="node 1 appears twice"):
            FaultConfig(
                partition_mtbf_ms=100.0,
                partition_groups=((0, 1), (1, 2)),
            )

    def test_yaml_style_lists_coerced_to_tuples(self):
        config = FaultConfig(
            partition_mtbf_ms=100.0, partition_groups=[[0], [1, 2]]
        )
        assert config.partition_groups == ((0,), (1, 2))
        assert config == FaultConfig(
            partition_mtbf_ms=100.0, partition_groups=((0,), (1, 2))
        )


class TestConfigGates:
    def test_faults_need_a_cluster(self):
        with pytest.raises(ValueError, match="cluster topology"):
            o2_config(nc=10, no=500).with_changes(faults=STORM)

    def test_retry_needs_a_cluster(self):
        with pytest.raises(ValueError, match="cluster topology"):
            o2_config(nc=10, no=500).with_changes(
                retry=RetryConfig(timeout_ms=1.0)
            )

    def test_retry_inert_without_fault_layer(self):
        with pytest.raises(ValueError, match="inert without the fault"):
            fault_config(faults=FaultConfig())

    def test_default_retry_without_faults_is_fine(self):
        fault_config(faults=FaultConfig(), retry=RetryConfig())

    def test_replicated_faults_need_async(self):
        with pytest.raises(ValueError, match="mode: async"):
            fault_config(replication=ReplicationConfig(mode="sync"))

    def test_partitions_need_two_servers(self):
        with pytest.raises(ValueError, match=">= 2 servers"):
            fault_config(
                cluster=ClusterConfig(servers=1),
                replication=ReplicationConfig(),
            )

    def test_groups_must_cover_the_cluster(self):
        with pytest.raises(ValueError, match="cover every node"):
            fault_config(
                faults=FaultConfig(
                    partition_mtbf_ms=100.0,
                    partition_groups=((0,), (1,)),
                )
            )

    def test_gray_only_plan_is_valid(self):
        fault_config(faults=FaultConfig(gray_mtbf_ms=500.0))


# ----------------------------------------------------------------------
# Property (c): the retry ladder is seed-deterministic and bounded
# ----------------------------------------------------------------------
POLICY_CONFIG = RetryConfig(
    timeout_ms=5.0,
    max_retries=3,
    backoff_base_ms=2.0,
    backoff_multiplier=2.0,
    jitter=0.25,
)


@given(seed=st.integers(0, 2**20), attempt=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_backoff_deterministic_and_bounded(seed, attempt):
    policy = RetryPolicy(POLICY_CONFIG)
    first = policy.backoff_ticks(attempt, RandomStream(seed, "retry"))
    again = policy.backoff_ticks(attempt, RandomStream(seed, "retry"))
    assert first == again  # pure function of the seed
    floor = int(2.0 ** attempt * policy.config.backoff_base_ms)
    lo = max(1, floor)  # ms_to_ticks scales up, so the tick floor holds
    assert first >= lo
    # jitter never more than doubles the nominal backoff at 0.25
    nominal = RetryPolicy(
        RetryConfig(
            timeout_ms=5.0,
            max_retries=3,
            backoff_base_ms=2.0,
            backoff_multiplier=2.0,
            jitter=0.0,
        )
    ).backoff_ticks(attempt, RandomStream(seed, "retry"))
    assert first <= int(nominal * 1.25) + 1


class TestRetryOutcome:
    def _cluster(self, seed=1):
        return VOODBSimulation(fault_config(), seed=seed).cluster

    def test_down_peer_exhausts_the_ladder(self):
        cluster = self._cluster()
        cluster.nodes[2].down_until = 10**15
        rng = RandomStream(7, "retry-test")
        responded, penalty = cluster._retry_outcome(0, 2, rng, 0)
        assert responded is False
        policy = cluster.retry_policy
        # property (c): exactly max_retries + 1 attempts, never more
        assert cluster.remote_timeouts == policy.max_retries + 1
        assert cluster.remote_retries == policy.max_retries
        assert penalty >= policy.timeout * (policy.max_retries + 1)

    def test_ladder_is_seed_deterministic(self):
        outcomes = []
        for _run in range(2):
            cluster = self._cluster(seed=9)
            cluster.nodes[1].down_until = 10**15
            rng = RandomStream(9, "retry-test")
            outcomes.append(cluster._retry_outcome(0, 1, rng, 0))
        assert outcomes[0] == outcomes[1]

    def test_retry_lands_after_recovery(self):
        cluster = self._cluster()
        policy = cluster.retry_policy
        # peer comes back right after the first timeout expires
        cluster.nodes[1].down_until = policy.timeout + 1
        rng = RandomStream(3, "retry-test")
        responded, penalty = cluster._retry_outcome(0, 1, rng, 0)
        assert responded is True
        assert cluster.remote_timeouts == 1
        assert cluster.remote_retries == 1
        assert penalty > policy.timeout

    def test_healthy_peer_is_free(self):
        cluster = self._cluster()
        rng = RandomStream(5, "retry-test")
        assert cluster._retry_outcome(0, 1, rng, 0) == (True, 0)
        assert cluster.remote_timeouts == 0


# ----------------------------------------------------------------------
# Property (b): elections never promote stale over fresher reachable
# ----------------------------------------------------------------------
_ELECTION_MODEL = None


def _election_cluster():
    global _ELECTION_MODEL
    if _ELECTION_MODEL is None:
        _ELECTION_MODEL = VOODBSimulation(fault_config(), seed=1)
    return _ELECTION_MODEL.cluster


@given(
    versions=st.lists(
        st.integers(min_value=0, max_value=50), min_size=3, max_size=3
    ),
    down=st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_election_promotes_the_freshest_alive_replica(versions, down):
    cluster = _election_cluster()
    page, owners, now = 424242, (0, 1, 2), 1000
    try:
        for index, owner in enumerate(owners):
            node = cluster.nodes[owner]
            node.applied[page] = versions[index]
            node.down_until = 10**15 if down[index] else 0
        chosen = cluster._elect(page, owners, now)
        alive = [o for o in owners if not down[o]]
        if not alive:
            assert chosen is None
        else:
            best = max(versions[o] for o in alive)
            assert chosen in alive
            assert versions[chosen] == best
            # ties resolve deterministically in replica-set order
            assert chosen == next(
                o for o in alive if versions[o] == best
            )
    finally:
        for owner in owners:
            cluster.nodes[owner].applied.pop(page, None)
            cluster.nodes[owner].down_until = 0


def test_election_prefers_majority_side_under_partition():
    """A minority-side replica loses the election even when it holds
    the freshest version: majority reachability trumps staleness."""
    model = VOODBSimulation(
        fault_config(
            faults=FaultConfig(
                partition_mtbf_ms=200.0,
                partition_heal_ms=60.0,
                partition_groups=((0,), (1, 2)),
                election_delay_ms=5.0,
            )
        ),
        seed=1,
    )
    cluster = model.cluster
    page, owners, now = 424242, (0, 1, 2), 1000
    cluster._partition_until = now + 10_000
    cluster.nodes[0].applied[page] = 99  # freshest, but cut off
    cluster.nodes[1].applied[page] = 5
    cluster.nodes[2].applied[page] = 7
    assert cluster._elect(page, owners, now) == 2

    # once the links heal, the freshest replica wins again
    cluster._partition_until = now
    assert cluster._elect(page, owners, now) == 0


# ----------------------------------------------------------------------
# Property (a): a healed partition converges after the repair drain
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_healed_partition_converges(seed):
    model = VOODBSimulation(fault_config(), seed=seed)
    model.run_phase(30)
    cluster = model.cluster
    assert cluster._committed, "the phase must commit writes"
    for page, version in cluster._committed.items():
        for owner in cluster.router.replicas(page):
            applied = cluster.nodes[owner].applied.get(page, 0)
            assert applied >= version, (
                f"seed {seed}: node {owner} is {version - applied} "
                f"versions behind on page {page} after the drain"
            )


def test_convergence_holds_with_crashes_too():
    config = fault_config(
        failures=FailureConfig(crash_mtbf_ms=150.0, recovery_time_ms=20.0)
    )
    model = VOODBSimulation(config, seed=7)
    phase = model.run_phase(30)
    cluster = model.cluster
    assert phase.crashes > 0
    for page, version in cluster._committed.items():
        for owner in cluster.router.replicas(page):
            assert cluster.nodes[owner].applied.get(page, 0) >= version


# ----------------------------------------------------------------------
# Incremental anti-entropy: the behind-list sweep == the full scan
# ----------------------------------------------------------------------
def _full_scan_sweep(cluster):
    """The reference: a sweep scanning every page ever written, which
    ``_repair_sweep`` must match back-fill for back-fill."""
    sim = cluster.sim
    nodes = cluster.nodes
    interconnect = cluster.interconnect
    router = cluster.router
    for node in nodes:
        if node.down_until > sim.now:
            continue
        peers = [
            other
            for other in nodes
            if other.index != node.index
            and other.down_until <= sim.now
            and cluster._reachable_at(node.index, other.index, sim.now)
        ]
        if not peers:
            continue
        for _ in peers:
            step = interconnect.transfer_nowait(cluster._message_bytes)
            if step is not None:
                yield from step
        for page in sorted(cluster._version):
            owners = router.replicas(page)
            if node.index not in owners:
                continue
            have = node.applied.get(page, 0)
            best = have
            source = None
            for owner in owners:
                if owner == node.index:
                    continue
                peer = nodes[owner]
                if peer.down_until > sim.now:
                    continue
                if not cluster._reachable_at(node.index, owner, sim.now):
                    continue
                version = peer.applied.get(page, 0)
                if version > best:
                    best = version
                    source = owner
            if source is None:
                continue
            step = interconnect.transfer_nowait(cluster._page_bytes)
            if step is not None:
                yield from step
            node.applied[page] = best
            outcome = node.memory.access(page, True)
            if not outcome.hit and outcome.writeback_pages:
                yield from cluster._node_miss_io(
                    node, outcome.writeback_pages
                )
            cluster.repair_pages += 1


class _ShipPerYield:
    """An interconnect stand-in: every transfer is exactly one yield,
    so a sweep can be suspended (and the cluster mutated) at each ship
    without running the event loop."""

    #: the write path's own timed tail is never driven here.
    infinite = True

    def transfer_nowait(self, nbytes):
        return iter((nbytes,))


class _LoggedApplied(dict):
    """A node's ``applied`` map that logs ``(node, page, version)``
    stores while its recorder is on."""

    def __init__(self, index, log):
        super().__init__()
        self.index = index
        self.log = log

    def __setitem__(self, page, version):
        if self.log.on:
            self.log.append((self.index, page, version))
        super().__setitem__(page, version)


class _BackfillLog(list):
    on = False


#: Pages the generated states touch (few, so writes collide).
_SWEEP_PAGES = 12
_FAR = 10**12

_SWEEP_OPS = st.one_of(
    # a write of page p led by owner i (mod the replica set)
    st.tuples(st.just("write"), st.integers(0, _SWEEP_PAGES - 1),
              st.integers(0, 2)),
    # an applier/read-repair install: owner i of page p moves to
    # ``lag`` versions below the latest (never backwards)
    st.tuples(st.just("apply"), st.integers(0, _SWEEP_PAGES - 1),
              st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.just("crash"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("partition"), st.booleans()),
)


def _sweep_cluster(replication=2):
    """A 4-node cluster; a partition cuts it into {0, 1} and {2, 3}."""
    config = fault_config(
        cluster=ClusterConfig(
            servers=4, replication=replication, interconnect_mbps=25.0
        )
    )
    cluster = VOODBSimulation(config, seed=1).cluster
    assert cluster._anti_entropy
    cluster.interconnect = _ShipPerYield()
    log = _BackfillLog()
    for node in cluster.nodes:
        node.applied = _LoggedApplied(node.index, log)
    return cluster, log


def _apply_op(cluster, op):
    kind = op[0]
    if kind == "write":
        _, page, choice = op
        owners = cluster.router.replicas(page)
        cluster._write_core(page, owners, None, owners[choice % len(owners)])
    elif kind == "apply":
        _, page, choice, lag = op
        owners = cluster.router.replicas(page)
        node = cluster.nodes[owners[choice % len(owners)]]
        version = cluster._version.get(page, 0) - lag
        if version > node.applied.get(page, 0):
            node.applied[page] = version
    elif kind == "crash":
        _, index, down = op
        cluster.nodes[index].down_until = _FAR if down else 0
    else:
        cluster._partition_until = _FAR if op[1] else 0


def _sweep_trace(sweep, setup, mid, between, replication):
    """Build a state, run two sweeps, return everything they did.

    ``mid`` maps a yield ordinal of the first sweep to the operations
    applied while it is suspended there; ``between`` runs after it.
    """
    cluster, log = _sweep_cluster(replication)
    for op in setup:
        _apply_op(cluster, op)
    log.on = True
    for ordinal, _ship in enumerate(sweep(cluster)):
        log.on = False
        for op in mid.get(ordinal, ()):
            _apply_op(cluster, op)
        log.on = True
    first = list(log)
    log.on = False
    for op in between:
        _apply_op(cluster, op)
    log.on = True
    for _ship in sweep(cluster):
        pass
    return (
        first,
        log[len(first):],
        cluster.repair_pages,
        [dict(node.applied) for node in cluster.nodes],
    )


def _both_sweeps(setup, mid, between=(), replication=2):
    old = _sweep_trace(_full_scan_sweep, setup, mid, between, replication)
    new = _sweep_trace(
        lambda cluster: cluster._repair_sweep(),
        setup, mid, between, replication,
    )
    assert new == old
    return new


@given(
    replication=st.sampled_from((2, 3)),
    setup=st.lists(_SWEEP_OPS, max_size=40),
    mid=st.dictionaries(
        st.integers(0, 24), st.lists(_SWEEP_OPS, min_size=1, max_size=3),
        max_size=6,
    ),
    between=st.lists(_SWEEP_OPS, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_incremental_sweep_matches_the_full_scan(
    replication, setup, mid, between
):
    _both_sweeps(setup, mid, between, replication)


def _node0_pages(cluster):
    """The lowest and highest pages node 0 replicates."""
    pages = [
        page
        for page in range(_SWEEP_PAGES)
        if 0 in cluster.router.replicas(page)
    ]
    return pages[0], pages[-1]


def _write_led(cluster, page, by_node0):
    """A write op on ``page`` led by node 0, or by its other owner."""
    owners = cluster.router.replicas(page)
    choice = next(i for i, o in enumerate(owners) if (o == 0) == by_node0)
    return ("write", page, choice)


#: With all 4 nodes up, node 0's first yields are its 3 summaries; the
#: next one is the ship of its first back-fill.
_FIRST_SHIP = 3


def test_page_first_written_mid_sweep_is_not_visited():
    """Node 0 lags on ``low``; while its back-fill ships, ``high`` (above
    the cursor) is written for the first time.  The snapshot predates
    that write, so node 0's pass skips it — the next sweep repairs it."""
    cluster, _log = _sweep_cluster()
    low, high = _node0_pages(cluster)
    setup = [_write_led(cluster, low, by_node0=False)]
    mid = {_FIRST_SHIP: [_write_led(cluster, high, by_node0=False)]}
    first, second, repairs, _applied = _both_sweeps(setup, mid)
    assert (0, low, 1) in first
    assert (0, high, 1) not in first
    assert (0, high, 1) in second
    assert repairs == 2


def test_page_falling_behind_above_the_cursor_is_visited():
    """Node 0 lags only on ``low``; while its back-fill ships, ``high`` —
    written by node 0 before the snapshot, so not on its list — falls
    behind.  The pass still reaches it, as the full scan would."""
    cluster, _log = _sweep_cluster()
    low, high = _node0_pages(cluster)
    setup = [
        _write_led(cluster, low, by_node0=False),
        _write_led(cluster, high, by_node0=True),
    ]
    mid = {_FIRST_SHIP: [_write_led(cluster, high, by_node0=False)]}
    first, _second, _repairs, applied = _both_sweeps(setup, mid)
    assert (0, low, 1) in first
    assert (0, high, 2) in first
    assert applied[0][high] == 2


# ----------------------------------------------------------------------
# Fault-layer branches the goldens and benches never enter
# ----------------------------------------------------------------------
#: A partition plan that never fires by itself: tests cut the links by
#: hand, isolating node 0 from the {1, 2} majority.
MANUAL_CUT = FaultConfig(
    partition_mtbf_ms=1e9,
    partition_groups=((0,), (1, 2)),
    election_delay_ms=5.0,
)


def _page_owned_by(cluster, owners):
    return next(
        page
        for page in range(cluster.object_manager.total_pages)
        if cluster.router.replicas(page) == owners
    )


def _owner_touches(cluster, owners):
    return sum(
        cluster.nodes[o].memory.hits + cluster.nodes[o].memory.misses
        for o in owners
    )


class TestAbandonedCoordinatorFetch:
    def test_cut_off_coordinator_waits_for_the_heal(self):
        """An object-server coordinator cut off from both owners of a
        page exhausts its retry ladder, abandons, and completes the
        fetch once the partition heals."""
        config = fault_config(
            faults=MANUAL_CUT,
            cluster=ClusterConfig(
                servers=3, replication=2, interconnect_mbps=25.0
            ),
        )
        model = VOODBSimulation(config, seed=1)
        cluster = model.cluster
        page = _page_owned_by(cluster, (1, 2))
        heal = ms_to_ticks(200.0)
        cluster._partition_until = heal
        before = _owner_touches(cluster, (1, 2))
        model.sim.process(
            as_process(cluster.serve_page_nowait, page, False, 0)
        )
        model.sim.run(until=0)
        policy = cluster.retry_policy
        assert cluster.remote_fetches == 1
        assert cluster.abandoned_reads == 1
        assert cluster.remote_timeouts == policy.max_retries + 1
        assert cluster.remote_retries == policy.max_retries
        # The request only crosses once the links are back.
        model.sim.run(until=heal - 1)
        assert _owner_touches(cluster, (1, 2)) == before
        model.sim.run()
        assert _owner_touches(cluster, (1, 2)) == before + 1
        assert model.sim.now > heal


def _write_at(cluster, page, log):
    step = cluster.serve_page_nowait(page, True)
    if step is not None:
        yield from step
    log.append(cluster.sim.now)


class TestElections:
    def _model(self):
        config = fault_config(
            faults=MANUAL_CUT, replication=ReplicationConfig(mode="async")
        )
        return VOODBSimulation(config, seed=1)

    def test_second_write_joins_the_election_under_way(self):
        model = self._model()
        cluster = model.cluster
        page = 0
        owners = cluster.router.replicas(page)
        cluster.nodes[owners[0]].down_until = 10**15
        done = []
        for _writer in range(2):
            model.sim.process(_write_at(cluster, page, done))
        model.sim.run()
        delay = ms_to_ticks(MANUAL_CUT.election_delay_ms)
        assert cluster.elections == 1
        assert cluster.promotions == 1
        leader = cluster._leader[page]
        assert leader != owners[0]
        assert cluster.nodes[leader].accesses == 2
        assert len(done) == 2
        assert min(done) >= delay

    def test_election_with_every_replica_down_waits_for_a_recovery(self):
        model = self._model()
        cluster = model.cluster
        page = 0
        owners = cluster.router.replicas(page)
        # Every replica is still down when the election delay ends.
        first_back = ms_to_ticks(MANUAL_CUT.election_delay_ms) + 300_000
        for owner, extra in zip(owners, (600_000, 0, 300_000)):
            cluster.nodes[owner].down_until = first_back + extra
        done = []
        model.sim.process(_write_at(cluster, page, done))
        model.sim.run(until=first_back - 1)
        assert cluster.elections == 1
        assert done == []
        model.sim.run()
        # The first replica back is promoted and takes the write.
        assert cluster.elections == 1
        assert cluster.promotions == 1
        assert cluster._leader[page] == owners[1]
        assert cluster.nodes[owners[1]].accesses == 1
        assert done and done[0] >= first_back


# ----------------------------------------------------------------------
# End-to-end: the fault kinds fire and surface as metrics
# ----------------------------------------------------------------------
class TestFaultMetrics:
    def test_partition_storm_metrics(self):
        phase = run_replication(fault_config(), seed=3).phase
        assert phase.fault_layer
        assert phase.partitions > 0
        assert phase.partition_ms > 0.0
        assert phase.repair_pages > 0
        metrics = phase.to_metrics()
        for name in (
            "partitions",
            "partition_ms",
            "remote_timeouts",
            "abandoned_reads",
            "elections",
            "promotions",
            "repair_pages",
            "read_repairs",
            "gray_episodes",
            "degraded_reads",
            "remote_retries",
        ):
            assert name in metrics

    def test_gray_failures_degrade_reads(self):
        config = fault_config(
            faults=FaultConfig(gray_mtbf_ms=100.0, gray_heal_ms=80.0,
                               gray_slowdown=4.0)
        )
        phase = run_replication(config, seed=3).phase
        assert phase.gray_episodes > 0
        assert phase.degraded_reads > 0

    def test_promotions_never_exceed_elections(self):
        phase = run_replication(fault_config(), seed=3).phase
        assert phase.elections >= phase.promotions

    def test_stale_rate_derives_from_served_reads(self):
        phase = run_replication(fault_config(), seed=3).phase
        assert phase.cluster_reads > 0
        expected = phase.stale_reads * 1000.0 / phase.cluster_reads
        assert phase.stale_reads_per_1000_reads == pytest.approx(expected)

    def test_faults_off_reports_no_fault_layer(self):
        config = fault_config(faults=FaultConfig(), retry=RetryConfig())
        phase = run_replication(config, seed=3).phase
        assert not phase.fault_layer
        assert "partitions" not in phase.to_metrics()

    def test_deterministic_across_runs(self):
        config = fault_config()
        first = run_replication(config, seed=11).to_metrics()
        second = run_replication(config, seed=11).to_metrics()
        assert first == second


# ----------------------------------------------------------------------
# Satellite 1: stale-read rate in report + JSON, pinned by the golden
# ----------------------------------------------------------------------
class TestStaleReadRateReporting:
    def test_stale_read_audit_golden_shows_the_rate(self):
        golden = RESULTS / "scenario_stale_read_audit.txt"
        assert "/1k reads)" in golden.read_text(encoding="utf-8")

    def test_report_and_json_agree_with_the_golden(self):
        scenario = get_scenario("stale-read-audit")
        result = run_scenario(
            scenario, executor=SerialExecutor(), replications=1
        )
        text = format_scenario(scenario, result)
        assert "stale reads" in text
        assert "/1k reads)" in text
        payload = scenario_to_json(scenario, result)
        rates = payload["replication"]["stale_reads_per_1000_reads"]
        stales = payload["replication"]["stale_reads"]
        assert len(rates) == len(scenario.points)
        for index, (rate, stale) in enumerate(zip(rates, stales)):
            reads = result.analyzers[index].mean("cluster_reads")
            assert reads > 0
            # single replication: the JSON rate IS the per-run ratio
            assert rate == pytest.approx(stale * 1000.0 / reads)
