"""Multi-server cluster topology: sharded placement over N server nodes.

VOODB §3.3 notes the generic model "can also be used to model [...]
multiserver hybrid systems (like GemStone)"; this module is that
extension.  A :class:`Cluster` instantiates the server side of Figure 4
once per node — each :class:`ClusterNode` owns its own Buffering
Manager, I/O Subsystem (a private capacity-1 disk) and object lock
table — and a deterministic :class:`ShardRouter` places every disk page
on its owning node(s).

Placement strategies (Table-3 style codes on
:class:`~repro.core.parameters.ClusterConfig`):

* ``hash`` — Fibonacci hashing over the page id scatters pages
  uniformly; contiguous pages land on different nodes, so per-node
  sequential I/O mostly disappears (the classic hash-sharding trade);
* ``range`` — contiguous page runs stay on one node, preserving the
  Figure 5 contiguity shortcut per node at the cost of skew exposure.

``replication`` stores every page on that many consecutive nodes:
reads balance round-robin across the replica set, writes apply at the
primary and propagate the page image to the other replicas across the
**inter-server network** — a dedicated :class:`~repro.core.network.Network`
medium whose throughput (``interconnect_mbps``) contends exactly like
the client network.  The object-server organization additionally
assembles multi-node objects at the object's *home* node, paying an
interconnect round trip per remotely owned page.

Locking shards with the data: :class:`ClusterLockManager` keeps one
MULTILVL admission scheduler for the whole cluster (transactions are
global) but routes each object lock to the lock table of the object's
home node, acquiring node partitions in node order — a total order over
``(home node, oid)``, so the conservative-2PL deadlock-freedom argument
of :mod:`repro.core.locks` carries over unchanged.

The **consistency spectrum**
(:class:`~repro.core.parameters.ReplicationConfig`) selects how replica
writes propagate: the default ``sync`` mode pays the fan-out inside the
transaction, while ``async`` mode commits at the primary and enqueues
the page image on every successor's FIFO apply queue, drained by a
per-node *applier* process (interconnect ship + optional replay delay)
— producing ``replica_lag_ms``/``stale_reads``/``apply_queue_peak``.
Quorum reads consult ``read_quorum`` live replicas and serve the
freshest; quorum writes wait for ``write_quorum − 1`` applier acks;
the ``read_your_writes``/``monotonic_reads`` session guarantees fall
back to the primary when the routed replica is behind the session
floor.  Failure injection composes per node (independent hazard
streams): reads fail over around crashed nodes in ring order, writes
queue behind the down primary's recovery.

Every configuration is served by **one page-service path**,
:meth:`Cluster.serve_page_nowait`: sync replication is the general path
with W = N and no apply delay, so a feature that is configured but
never fires leaves the run identical to the feature being off.  Three
timing rules hold on it:

1. a sync write over a free interconnect installs the replica images
   at write time and writes back the victims they evict after the
   primary's disk work; over a throttled interconnect each image
   ships, then installs, after the primary's work;
2. a forwarded (object-server) service over a throttled interconnect
   touches the owner's buffer only once the home node's request has
   arrived; everywhere else the buffer is touched at dispatch;
3. served reads, the stale-rate base, are counted in async mode only.

The **fault-tolerance layer**
(:class:`~repro.core.failures.FaultConfig` /
:class:`~repro.core.failures.RetryConfig`) adds the degraded-mode
fault kinds and the recovery machinery on top:

* *network partitions* cut the interconnect links between node groups
  for a heal time (sampled by thinning on a dedicated ``partitions``
  stream);
* *gray failures* put a node into a degraded mode that multiplies its
  disk and interconnect service times (per-node ``gray-{i}`` streams);
* every remote operation — quorum-read consultations, replica ships,
  coordinator fetches — honours the **timeout/retry/backoff contract**
  and abandons unresponsive peers instead of blocking
  (``remote_timeouts``/``remote_retries``/``abandoned_reads``);
* when a page's primary crashes or is partitioned away from the
  majority of its replica set, the freshest reachable replica is
  **promoted** after an election delay and writes redirect to it
  (replacing the write-blocking recovery wait); the old primary
  catches up through the version-guarded apply path;
* a periodic **anti-entropy** process Merkle-style compares page
  versions with reachable peers and back-fills stale copies over the
  interconnect, and quorum reads **read-repair** divergent replicas
  they observe.  Each node keeps a sorted *behind* list of the pages
  it may lag on, so a sweep visits those pages only: its cost follows
  divergence, not the number of pages ever written.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.despy.process import PARK, Hold, Release, Request, WaitFor
from repro.despy.resource import Gate, Resource
from repro.despy.timebase import MS_PER_TICK, ms_to_ticks
from repro.core.buffering import BufferManager
from repro.core.failures import FailureInjector, NoFailures, RetryPolicy
from repro.core.io_subsystem import IOSubsystem
from repro.core.locks import LockManager
from repro.core.network import Network
from repro.core.parameters import ALLOWED_PLACEMENTS, VOODBConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation
    from repro.core.object_manager import ObjectManager

#: 64-bit golden-ratio multiplier (Fibonacci hashing): consecutive page
#: ids spread maximally far apart, with no dependence on Python's
#: randomized ``hash()`` — placement must be identical across processes
#: and Python versions for the goldens to reproduce byte-for-byte.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class ShardRouter:
    """Deterministic page -> server placement (hash or range)."""

    def __init__(
        self,
        servers: int,
        placement: str = "hash",
        total_pages: int = 1,
        replication: int = 1,
        seed: int = 0,
    ) -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        if placement not in ALLOWED_PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        if not 1 <= replication <= servers:
            raise ValueError(
                f"replication must be in [1, {servers}], got {replication}"
            )
        if total_pages < 1:
            raise ValueError(f"total_pages must be >= 1, got {total_pages}")
        self.servers = servers
        self.placement = placement
        self.total_pages = total_pages
        self.replication = replication
        self.seed = seed
        #: salt folded into the hash so distinct seeds permute placement
        #: while staying a pure function of the (frozen) config.
        self._salt = (seed * _GOLDEN + 1) & _MASK64
        #: replica sets repeat per page id; memoized (pages are dense).
        self._replica_cache: Dict[int, Tuple[int, ...]] = {}

    def primary(self, page: int) -> int:
        """The node owning the authoritative copy of ``page``."""
        if page < 0:
            raise ValueError(f"page ids are non-negative, got {page}")
        if self.placement == "hash":
            return (((page + 1) * _GOLDEN ^ self._salt) & _MASK64) % self.servers
        if page >= self.total_pages:
            # Pages appended past the initial extent (OCB inserts) land
            # on the last range shard — heap-append semantics.
            return self.servers - 1
        return min(page * self.servers // self.total_pages, self.servers - 1)

    def replicas(self, page: int) -> Tuple[int, ...]:
        """The replica set of ``page``: primary first, then successors."""
        cached = self._replica_cache.get(page)
        if cached is not None:
            return cached
        first = self.primary(page)
        replicas = tuple(
            (first + offset) % self.servers for offset in range(self.replication)
        )
        self._replica_cache[page] = replicas
        return replicas

    def for_servers(
        self, servers: int, total_pages: Optional[int] = None
    ) -> "ShardRouter":
        """A re-sharded router for a new cluster size (same strategy)."""
        return ShardRouter(
            servers,
            self.placement,
            self.total_pages if total_pages is None else total_pages,
            min(self.replication, servers),
            self.seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardRouter {self.placement} servers={self.servers} "
            f"replication={self.replication}>"
        )


class ClusterNode:
    """One server of the cluster: its own buffer, disk and lock table."""

    def __init__(self, sim: "Simulation", config: VOODBConfig, index: int) -> None:
        self.index = index
        self.memory = BufferManager(config, sim.stream(f"memory-{index}"))
        self.io = IOSubsystem(sim, config)
        #: this node's object-lock table; admission is cluster-global
        #: (the ClusterLockManager's scheduler), hence no per-node one.
        self.locks = LockManager(sim, config, with_admission=False)
        #: page/object service operations this node performed.
        self.accesses = 0
        # --- consistency and hazard state (async replication, per-node
        # hazards); inert unless the Cluster wires the feature on.
        #: this node's hazard injector (node-indexed stream when enabled).
        self.failures = NoFailures()
        #: tick until which this node is crash-recovering (0 = healthy).
        self.down_until = 0
        #: highest page version applied locally (async replication).
        self.applied: Dict[int, int] = {}
        #: shipped page images awaiting local apply:
        #: ``(page, version, enqueued_tick, ack)`` entries, FIFO.
        self.apply_queue: deque = deque()
        #: wakes this node's applier process when the queue refills.
        self.apply_gate: Optional[Gate] = None
        #: deepest the apply queue ever got (backlog indicator).
        self.queue_peak = 0
        # --- fault-layer state (FaultConfig); inert unless wired on.
        #: tick until which this node is gray (degraded mode; 0 = crisp).
        self.gray_until = 0
        #: thinning marker of this node's gray-hazard exposure.
        self.gray_last = 0
        #: this node's gray-hazard stream (``gray-{i}`` when enabled).
        self.gray_stream = None
        #: this node's retry-jitter stream (``retry-{i}`` when enabled).
        self.retry_stream = None
        #: sorted pages this node replicates that may lag ``_version``
        #: (filled only while anti-entropy runs; see ``_mark_behind``).
        self.behind: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClusterNode {self.index} accesses={self.accesses}>"


class _ClusterIOView:
    """Cluster-wide I/O counters, quacking like one ``IOSubsystem``."""

    def __init__(self, nodes: List[ClusterNode]) -> None:
        self._nodes = nodes

    @property
    def reads(self) -> int:
        return sum(node.io.reads for node in self._nodes)

    @property
    def writes(self) -> int:
        return sum(node.io.writes for node in self._nodes)

    @property
    def swap_reads(self) -> int:
        return sum(node.io.swap_reads for node in self._nodes)

    @property
    def swap_writes(self) -> int:
        return sum(node.io.swap_writes for node in self._nodes)

    @property
    def sequential_accesses(self) -> int:
        return sum(node.io.sequential_accesses for node in self._nodes)

    @property
    def busy_ticks(self) -> int:
        return sum(node.io.busy_ticks for node in self._nodes)

    @property
    def busy_time_ms(self) -> float:
        return sum(node.io.busy_time_ms for node in self._nodes)

    @property
    def total_ios(self) -> int:
        return (
            self.reads + self.writes + self.swap_reads + self.swap_writes
        )


class _ClusterMemoryView:
    """Cluster-wide buffer counters, quacking like one ``BufferManager``."""

    def __init__(self, nodes: List[ClusterNode]) -> None:
        self._nodes = nodes

    @property
    def hits(self) -> int:
        return sum(node.memory.hits for node in self._nodes)

    @property
    def misses(self) -> int:
        return sum(node.memory.misses for node in self._nodes)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _ClusterFailureView:
    """Cluster-wide hazard counters, quacking like one ``FailureInjector``.

    On a cluster, hazards live at the nodes: transient faults are drawn
    by each node's own injector at its disk, and crash probes happen per
    page service at the serving node (``Cluster._crash_probe``) rather
    than at the Transaction Manager's global boundary — a crash takes
    one node down, not the system.  The view therefore sums the per-node
    counters and answers the TM's probes with "nothing happened here".
    """

    def __init__(self, nodes: List[ClusterNode]) -> None:
        self._nodes = nodes

    @property
    def transient_faults(self) -> int:
        return sum(node.failures.transient_faults for node in self._nodes)

    @property
    def crashes(self) -> int:
        return sum(node.failures.crashes for node in self._nodes)

    @property
    def downtime_ticks(self) -> int:
        return sum(node.failures.downtime_ticks for node in self._nodes)

    @property
    def downtime_ms(self) -> float:
        return self.downtime_ticks * MS_PER_TICK

    @property
    def frames_lost(self) -> int:
        return sum(node.failures.frames_lost for node in self._nodes)

    @staticmethod
    def io_penalty() -> int:
        return 0

    @staticmethod
    def crash_check() -> int:
        return 0


class ClusterLockManager:
    """Global MULTILVL admission + per-node sharded object lock tables.

    Implements the Transaction Manager's locking interface
    (``admission_request``/``admission_release`` commands and the
    ``acquire_all_nowait``/``release_all_nowait`` pair) by partitioning
    the lock set by each object's home node and delegating to the
    node-local :class:`~repro.core.locks.LockManager` tables **strictly
    in node order** — the next partition is not touched until the
    previous one is fully granted, preserving the global acquisition
    order that makes conservative 2PL deadlock-free.
    """

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        nodes: List[ClusterNode],
        home_of,
    ) -> None:
        self.sim = sim
        self.config = config
        self.admission = Resource(sim, "scheduler", capacity=config.multilvl)
        self.admission_request = Request(self.admission)
        self.admission_release = Release(self.admission)
        self._nodes = nodes
        self._home_of = home_of

    # ------------------------------------------------------------------
    # Transaction-side protocol
    # ------------------------------------------------------------------
    def admit(self):
        yield self.admission_request

    def leave(self):
        yield self.admission_release

    def _partition(
        self, oids: Iterable[int], presorted: bool = False
    ) -> List[Tuple[int, List[int]]]:
        """Split the lock set by home node, each part in ascending oid.

        A ``presorted`` input (sorted, distinct — the Transaction
        Manager's contract) partitions order-preservingly, so every
        per-node part is already canonical and the node tables can skip
        their re-sort; otherwise ids are deduplicated here and the node
        tables canonicalize.  Either way the acquisition order is the
        same total order over ``(home node, oid)``.
        """
        home_of = self._home_of
        parts: Dict[int, List[int]] = {}
        if presorted:
            for oid in oids:
                parts.setdefault(home_of(oid), []).append(oid)
        else:
            for oid in set(oids):
                parts.setdefault(home_of(oid), []).append(oid)
        return sorted(parts.items())

    def acquire_all_nowait(
        self,
        txn_id: int,
        oids: Iterable[int],
        writes: set,
        presorted: bool = False,
    ):
        parts = self._partition(oids, presorted)
        for position, (node, part) in enumerate(parts):
            step = self._nodes[node].locks.acquire_all_nowait(
                txn_id, part, writes, presorted
            )
            if step is not None:
                return self._acquire_tail(
                    step, txn_id, parts[position + 1 :], writes, presorted
                )
        return None

    def _acquire_tail(self, step, txn_id, rest, writes, presorted):
        yield from step
        for node, part in rest:
            step = self._nodes[node].locks.acquire_all_nowait(
                txn_id, part, writes, presorted
            )
            if step is not None:
                yield from step

    def release_all_nowait(
        self, txn_id: int, oids: Iterable[int], presorted: bool = False
    ):
        steps = []
        for node, part in self._partition(oids, presorted):
            step = self._nodes[node].locks.release_all_nowait(
                txn_id, part, presorted
            )
            if step is not None:
                steps.append(step)
        if not steps:
            return None
        if len(steps) == 1:
            return steps[0]
        return _chain(steps)

    # ------------------------------------------------------------------
    # Aggregate counters (the model's snapshot reads these)
    # ------------------------------------------------------------------
    @property
    def acquisitions(self) -> int:
        return sum(node.locks.acquisitions for node in self._nodes)

    @property
    def releases(self) -> int:
        return sum(node.locks.releases for node in self._nodes)

    @property
    def waits(self) -> int:
        return sum(node.locks.waits for node in self._nodes)

    @property
    def wait_ticks(self) -> int:
        return sum(node.locks.wait_ticks for node in self._nodes)

    @property
    def wait_time_ms(self) -> float:
        return sum(node.locks.wait_time_ms for node in self._nodes)

    @property
    def locked_objects(self) -> int:
        return sum(node.locks.locked_objects for node in self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusterLockManager nodes={len(self._nodes)} "
            f"locked={self.locked_objects} mpl={self.config.multilvl}>"
        )


def _chain(steps):
    for step in steps:
        yield from step


class Cluster:
    """The sharded server side: nodes, router, interconnect, counters."""

    def __init__(
        self,
        sim: "Simulation",
        config: VOODBConfig,
        object_manager: "ObjectManager",
    ) -> None:
        topology = config.cluster
        if not topology.enabled:
            raise ValueError("ClusterConfig.servers must be >= 1 for a Cluster")
        self.sim = sim
        self.config = config
        self.object_manager = object_manager
        self.router = ShardRouter(
            topology.servers,
            topology.placement,
            max(1, object_manager.total_pages),
            topology.replication,
            topology.placement_seed,
        )
        self.nodes = [
            ClusterNode(sim, config, index) for index in range(topology.servers)
        ]
        #: the inter-server medium: same half-duplex contention model as
        #: the client network, throttled by ``interconnect_mbps``.
        self.interconnect = Network(
            sim, config.with_changes(netthru=topology.interconnect_mbps)
        )
        self.io = _ClusterIOView(self.nodes)
        self.memory = _ClusterMemoryView(self.nodes)
        self.locks = ClusterLockManager(sim, config, self.nodes, self.home_of)
        self._page_bytes = config.pgsize
        self._message_bytes = config.message_bytes
        self._rr = 0
        self._coordinator_rr = 0
        # Counters
        self.remote_fetches = 0
        self.replica_reads = 0
        self.replica_writes = 0
        # --- consistency spectrum (ReplicationConfig) -----------------
        self.replication_config = config.replication
        #: async mode ships page images through per-node apply queues
        #: instead of the synchronous fan-out.
        self.async_mode = self.replication_config.is_async
        self._apply_delay = ms_to_ticks(self.replication_config.apply_delay_ms)
        #: per-node hazard injection (crashes probed per page service).
        self._failures_enabled = config.failures.enabled
        #: public gate for the fault-tolerance layer (partitions, gray
        #: failures, retry contract, elections, anti-entropy).
        self.faults_on = config.faults.enabled
        #: latest version enqueued per page (bumped at the primary write).
        self._version: Dict[int, int] = {}
        #: latest version with a full write-quorum of acks per page.
        self._committed: Dict[int, int] = {}
        #: highest version ever served per page (monotonic-reads floor).
        self._served: Dict[int, int] = {}
        #: per-page elected primary (absent = the placement primary;
        #: only the fault layer's elections fill it).
        self._leader: Dict[int, int] = {}
        # Consistency and hazard counters
        self.stale_reads = 0
        self.replica_applies = 0
        self.replica_lag_ticks = 0
        self.read_failovers = 0
        self.write_recovery_waits = 0
        #: page reads served in async mode (stale-rate denominator).
        self.reads_served = 0
        # Fault-layer counters (all stay 0 when the layer is off)
        self.partitions = 0
        self.partition_ticks = 0
        self.gray_episodes = 0
        self.degraded_reads = 0
        self.remote_timeouts = 0
        self.remote_retries = 0
        self.abandoned_reads = 0
        self.elections = 0
        self.promotions = 0
        self.repair_pages = 0
        self.read_repairs = 0
        self.failures = NoFailures()
        if self.faults_on:
            fault = config.faults
            self.retry_policy = RetryPolicy(config.retry)
            self._partition_mtbf = ms_to_ticks(fault.partition_mtbf_ms)
            self._partition_heal = ms_to_ticks(fault.partition_heal_ms)
            self._gray_mtbf = ms_to_ticks(fault.gray_mtbf_ms)
            self._gray_heal = ms_to_ticks(fault.gray_heal_ms)
            self._gray_slowdown = fault.gray_slowdown
            self._election_delay = ms_to_ticks(fault.election_delay_ms)
            self._repair_interval = ms_to_ticks(fault.repair_interval_ms)
            self._partition_stream = sim.stream("partitions")
            self._partition_last = 0
            #: tick until which the current partition holds (0 = whole).
            self._partition_until = 0
            self._group_of = self._resolve_group_of(fault, topology.servers)
            #: per-page election-in-progress completion tick.
            self._electing: Dict[int, int] = {}
            self._repair_last = 0
            # Gray interconnect drag: the extra ticks one page ship
            # to/from a gray node costs, and whether that slowed ship
            # blows the retry timeout (making gray peers abandonable).
            if math.isinf(topology.interconnect_mbps):
                base_ship = 0
            else:
                ship_ms = self._page_bytes * 1000.0 / (
                    topology.interconnect_mbps * (2**20)
                )
                base_ship = ms_to_ticks(ship_ms)
            self._gray_ship_extra = int(
                base_ship * (self._gray_slowdown - 1.0)
            )
            self._gray_timeout_prone = (
                base_ship > 0
                and int(base_ship * self._gray_slowdown)
                >= self.retry_policy.timeout
            )
            for node in self.nodes:
                node.gray_stream = sim.stream(f"gray-{node.index}")
                node.retry_stream = sim.stream(f"retry-{node.index}")
        #: incremental anti-entropy bookkeeping, on only while repair
        #: sweeps run: writes fill the nodes' ``behind`` lists and record
        #: each page's first-write ordinal (its index in ``_version``).
        self._anti_entropy = self.faults_on and self._repair_interval > 0
        self._first_write: Dict[int, int] = {}
        if self._failures_enabled:
            for node in self.nodes:
                node.failures = FailureInjector(
                    sim,
                    config.failures,
                    node.memory,
                    stream_label=f"failures-{node.index}",
                )
                node.io.failures = node.failures
            self.failures = _ClusterFailureView(self.nodes)
        if self.async_mode:
            for node in self.nodes:
                node.apply_gate = Gate(sim, f"apply-{node.index}")
                sim.process(
                    self._applier(node), name=f"applier-{node.index}"
                )

    @property
    def replica_lag_ms(self) -> float:
        return self.replica_lag_ticks * MS_PER_TICK

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def home_of(self, oid: int) -> int:
        """The node owning an object's first page (its home shard)."""
        return self.router.primary(self.object_manager.page_of(oid))

    def next_coordinator(self) -> int:
        """Round-robin coordinator choice (front-end load balancer).

        The object-server organization hands each object request to a
        coordinator node this way; the counter makes the rotation a
        pure function of the access sequence, so replications replay
        exactly.
        """
        index = self._coordinator_rr % len(self.nodes)
        self._coordinator_rr += 1
        return index

    # ------------------------------------------------------------------
    # Page service
    # ------------------------------------------------------------------
    def serve_page_nowait(self, page: int, write: bool, home: Optional[int] = None):
        """Serve one page access; ``None`` when no simulated time passes.

        The one page-service path of every cluster configuration: timed
        work (throttled-interconnect transfers, crash downtime,
        elections, quorum waits, disk misses) is returned as a generator
        to ``yield from``.  ``home`` is the assembling node (object-server
        forwarding); ``None`` means the client routed the request
        straight to the serving node (page-server smart driver).
        """
        owners = self.router.replicas(page)
        if self.faults_on:
            self._fault_probe()
            if write:
                leader = self._leader.get(page, owners[0])
                if self._leader_impaired(leader, owners, self.sim.now):
                    # The primary crashed or lost its majority: elect
                    # the freshest reachable replica and write there
                    # (no write-blocking recovery wait).
                    return self._election_then_write(page, owners, home)
                return self._write_core(page, owners, home, leader)
            return self._read_core(page, owners, home)
        if write:
            resume = self.nodes[owners[0]].down_until
            if resume > self.sim.now:
                # Writes queue behind the crashed primary's recovery.
                self.write_recovery_waits += 1
                return self._serve_at(resume, page, True, home)
            return self._write_core(page, owners, home)
        return self._read_core(page, owners, home)

    #: The same body under a second name, which the perfbench tracer
    #: also wraps.
    serve_page = serve_page_nowait

    def _serve_at(self, resume: int, page: int, write: bool, home):
        """Wait until tick ``resume``, then serve the access afresh."""
        yield Hold(resume - self.sim.now)
        step = self.serve_page_nowait(page, write, home)
        if step is not None:
            yield from step

    # -- Fault-layer state machinery (partitions / gray / retry) -------
    @staticmethod
    def _resolve_group_of(fault, servers: int) -> Dict[int, int]:
        """Node -> partition-side map; () bisects the cluster."""
        groups = fault.partition_groups
        if not groups and fault.partition_mtbf_ms > 0:
            half = (servers + 1) // 2
            groups = (
                tuple(range(half)),
                tuple(range(half, servers)),
            )
        group_of: Dict[int, int] = {}
        for side, members in enumerate(groups):
            for member in members:
                group_of[member] = side
        return group_of

    def _reachable_at(self, src: int, dst: int, when: int) -> bool:
        """Is the src -> dst interconnect link up at tick ``when``?"""
        if src == dst or self._partition_until <= when:
            return True
        return self._group_of.get(src) == self._group_of.get(dst)

    def _responsive_at(self, src: int, dst: int, when: int) -> bool:
        """Would ``dst`` answer ``src`` within one timeout at ``when``?

        A peer is unresponsive while crashed, partitioned away, or (when
        its slowed ship time exceeds the timeout) gray.
        """
        node = self.nodes[dst]
        if node.down_until > when or self.nodes[src].down_until > when:
            return False
        if not self._reachable_at(src, dst, when):
            return False
        if self._gray_timeout_prone and node.gray_until > when:
            return False
        return True

    def _next_responsive(self, src: int, dst: int, when: int) -> int:
        """Earliest tick >= ``when`` at which ``dst`` answers ``src``."""
        node = self.nodes[dst]
        resume = when
        if node.down_until > resume:
            resume = node.down_until
        if self.nodes[src].down_until > resume:
            resume = self.nodes[src].down_until
        if self._partition_until > resume and not self._reachable_at(
            src, dst, resume
        ):
            resume = self._partition_until
        if self._gray_timeout_prone and node.gray_until > resume:
            resume = node.gray_until
        return resume

    def _fault_probe(self) -> None:
        """Advance the global fault state at one observation instant.

        Same thinning-on-observation discipline as the hazard injector:
        partitions are drawn from elapsed exposure on the dedicated
        ``partitions`` stream (outage time is not exposure — the marker
        jumps past the heal), and the anti-entropy cadence fires a
        repair sweep when its interval has elapsed.  No standing timer
        events, so workload phases still drain naturally.
        """
        now = self.sim.now
        if self._partition_mtbf and now > self._partition_until:
            last = self._partition_last
            if now > last:
                self._partition_last = now
            elapsed = now - last
            if elapsed > 0:
                probability = 1.0 - math.exp(-elapsed / self._partition_mtbf)
                if self._partition_stream.bernoulli(probability):
                    self.partitions += 1
                    self._partition_until = now + self._partition_heal
                    self.partition_ticks += self._partition_heal
                    self._partition_last = self._partition_until
        if (
            self._repair_interval
            and now - self._repair_last >= self._repair_interval
        ):
            self._repair_last = now
            self.sim.process(self._repair_sweep(), name="anti-entropy")

    def _gray_probe(self, node: ClusterNode) -> None:
        """Per-node gray-hazard probe (thinning on its own stream)."""
        if not self._gray_mtbf:
            return
        now = self.sim.now
        if now <= node.gray_until:
            return  # already degraded; exposure resumes at the heal
        last = node.gray_last
        if now > last:
            node.gray_last = now
        elapsed = now - last
        if elapsed <= 0:
            return
        probability = 1.0 - math.exp(-elapsed / self._gray_mtbf)
        if node.gray_stream.bernoulli(probability):
            self.gray_episodes += 1
            node.gray_until = now + self._gray_heal
            node.gray_last = node.gray_until

    def _retry_outcome(self, src: int, dst: int, rng, start: int):
        """Project the timeout/retry/backoff ladder for src -> dst.

        Returns ``(responded, penalty_ticks)``.  Attempts are projected
        against the known outage schedule (``down_until``, the
        partition heal, gray episodes), so a retry landing after a heal
        succeeds: the storm is exactly as long as the outage forces it
        to be, and the whole ladder is a pure function of the seed
        (jitter comes from the initiating node's retry stream).
        """
        if self._responsive_at(src, dst, start):
            return True, 0
        policy = self.retry_policy
        penalty = 0
        attempt = 0
        while True:
            penalty += policy.timeout
            self.remote_timeouts += 1
            if attempt >= policy.max_retries:
                return False, penalty
            penalty += policy.backoff_ticks(attempt, rng)
            self.remote_retries += 1
            attempt += 1
            if self._responsive_at(src, dst, start + penalty):
                return True, penalty

    # -- Primary re-election -------------------------------------------
    def _leader_impaired(
        self, leader: int, owners: Tuple[int, ...], now: int
    ) -> bool:
        """Is the current primary unfit to take this write?

        Unfit means crashed, or cut off from a strict majority of its
        replica set by an active partition (writes at a minority-side
        primary would silently diverge).
        """
        if self.nodes[leader].down_until > now:
            return True
        if self._partition_until <= now or len(owners) == 1:
            return False
        reachable = sum(
            1 for owner in owners if self._reachable_at(leader, owner, now)
        )
        return reachable < len(owners) // 2 + 1

    def _elect(self, page: int, owners: Tuple[int, ...], now: int):
        """Choose the replica to promote (``None`` = all replicas down).

        Eligible nodes are alive replicas that reach a strict majority
        of the replica set; when no side holds a majority, any alive
        replica qualifies (the minority keeps limping rather than
        blocking).  Among the eligible, the highest locally applied
        version of the page wins — re-election never promotes a stale
        replica over a fresher reachable one — with ties resolving in
        replica-set order.
        """
        nodes = self.nodes
        alive = [o for o in owners if nodes[o].down_until <= now]
        if not alive:
            return None
        majority = len(owners) // 2 + 1
        eligible = [
            o
            for o in alive
            if sum(
                1
                for peer in owners
                if nodes[peer].down_until <= now
                and self._reachable_at(o, peer, now)
            )
            >= majority
        ] or alive
        best = eligible[0]
        best_version = nodes[best].applied.get(page, 0)
        for candidate in eligible[1:]:
            version = nodes[candidate].applied.get(page, 0)
            if version > best_version:
                best, best_version = candidate, version
        return best

    def _election_then_write(self, page: int, owners: Tuple[int, ...], home):
        """Run (or join) an election for ``page``, then write there."""
        now = self.sim.now
        pending = self._electing.get(page, 0)
        if pending > now:
            # An election for this page is already under way: wait for
            # its verdict rather than holding a second one.
            yield Hold(pending - now)
        else:
            self._electing[page] = now + self._election_delay
            self.elections += 1
            if self._election_delay:
                yield Hold(self._election_delay)
            while True:
                chosen = self._elect(page, owners, self.sim.now)
                if chosen is not None:
                    break
                # Every replica is down: wait out the earliest recovery.
                resume = min(self.nodes[o].down_until for o in owners)
                yield Hold(resume - self.sim.now)
            if chosen != self._leader.get(page, owners[0]):
                self._leader[page] = chosen
                self.promotions += 1
        step = self._write_core(
            page, owners, home, self._leader.get(page, owners[0])
        )
        if step is not None:
            yield from step

    def _read_core(self, page: int, owners: Tuple[int, ...], home):
        """Serve one page read (see :meth:`serve_page_nowait`).

        The read is routed deterministically: to the home node when it
        holds a replica (object-server locality), otherwise round-robin
        across the replica set.
        """
        now = self.sim.now
        nodes = self.nodes
        if len(owners) == 1:
            target = owners[0]
        elif home is not None and home in owners:
            target = home
        else:
            target = owners[self._rr % len(owners)]
            self._rr += 1
        if nodes[target].down_until > now:
            start = owners.index(target)
            for offset in range(1, len(owners)):
                candidate = owners[(start + offset) % len(owners)]
                if nodes[candidate].down_until <= now:
                    # Route the read around the crashed node.
                    self.read_failovers += 1
                    target = candidate
                    break
            else:
                # The whole replica set is down: wait out the earliest
                # recovery, then retry the access from scratch.
                self.read_failovers += 1
                resume = min(nodes[index].down_until for index in owners)
                return self._serve_at(resume, page, False, home)
        probes = 0
        delay = 0
        repair = None
        if self.async_mode:
            if self.faults_on:
                target, probes, delay, repair = (
                    self._consistent_read_target_fault(
                        page, owners, target, now
                    )
                )
            else:
                target, probes = self._consistent_read_target(
                    page, owners, target, now
                )
            if target is None:
                # A session guarantee needs the (down) primary.
                primary = self._leader.get(page, owners[0])
                return self._serve_at(
                    nodes[primary].down_until, page, False, home
                )
            # Only async replicas can be stale: served reads are the
            # stale-rate base there and nowhere else.
            self.reads_served += 1
            applied = nodes[target].applied.get(page, 0)
            if applied < self._committed.get(page, 0):
                self.stale_reads += 1
            if applied > self._served.get(page, 0):
                self._served[page] = applied
        node = nodes[target]
        node.accesses += 1
        if target != owners[0]:
            self.replica_reads += 1
        if self._failures_enabled:
            delay += self._crash_probe(node)
        degraded = False
        if self.faults_on:
            self._gray_probe(node)
            degraded = node.gray_until > now
            if degraded:
                self.degraded_reads += 1
        forwarded = home is not None and target != home
        if forwarded:
            self.remote_fetches += 1
            if self.faults_on:
                # Coordinator fetch under the retry contract: the home
                # node keeps the request and completes it once the peer
                # answers — an abandoned ladder waits the outage out.
                ok, cost = self._retry_outcome(
                    home, target, nodes[home].retry_stream, now
                )
                if ok:
                    delay += cost
                else:
                    self.abandoned_reads += 1
                    delay += (
                        self._next_responsive(home, target, now + cost) - now
                    )
                if degraded:
                    delay += self._gray_ship_extra
        step = self._assemble(
            node, page, False, degraded, delay, forwarded, probes
        )
        if repair is not None:
            step = repair if step is None else _chain((step, repair))
        return step

    def _consistent_read_target(
        self, page: int, owners: Tuple[int, ...], target: int, now: int
    ):
        """Apply quorum consultation and session guarantees to a read.

        Returns ``(node, probe_messages)``; ``node`` is ``None`` when a
        session guarantee can only be met by the primary and the primary
        is down (the caller waits out its recovery).
        """
        rep = self.replication_config
        nodes = self.nodes
        probes = 0
        consulted = [target]
        if rep.read_quorum > 1 and len(owners) > 1:
            # Consult R live replicas (ring order from the routed node)
            # and serve from the freshest — each extra consultation is a
            # version-probe round trip on the interconnect.
            start = owners.index(target)
            for offset in range(1, len(owners)):
                if len(consulted) >= rep.read_quorum:
                    break
                candidate = owners[(start + offset) % len(owners)]
                if nodes[candidate].down_until <= now:
                    consulted.append(candidate)
            probes = 2 * (len(consulted) - 1)
        target, _version = self._read_target(page, owners, consulted, now)
        return target, probes

    def _read_target(
        self, page: int, owners: Tuple[int, ...], consulted: List[int], now: int
    ):
        """The node a read is served from, and the version it holds.

        Serves from the freshest of the ``consulted`` replicas (the
        first consulted on a tie), then applies the session guarantees:
        a replica too stale for read-your-writes / monotonic reads falls
        back to the (elected) primary, which holds the newest version
        when up.  The node is ``None`` when that primary is down.
        """
        nodes = self.nodes
        target = consulted[0]
        best_version = nodes[target].applied.get(page, 0)
        for candidate in consulted[1:]:
            version = nodes[candidate].applied.get(page, 0)
            if version > best_version:
                target, best_version = candidate, version
        rep = self.replication_config
        required = 0
        if rep.read_your_writes:
            required = self._version.get(page, 0)
        if rep.monotonic_reads:
            floor = self._served.get(page, 0)
            if floor > required:
                required = floor
        if required and best_version < required:
            primary = self._leader.get(page, owners[0])
            if nodes[primary].down_until > now:
                return None, best_version
            target = primary
        return target, best_version

    def _consistent_read_target_fault(
        self, page: int, owners: Tuple[int, ...], target: int, now: int
    ):
        """Quorum consultation under the retry contract, with read-repair.

        The fault-layer variant of :meth:`_consistent_read_target`:
        consulted peers that do not answer within the timeout/backoff
        ladder are **abandoned** (``abandoned_reads``) instead of
        silently skipped, their ladder cost lands on the read's
        response time, and replicas the consultation observes behind
        the freshest version are **read-repaired** over the
        interconnect.  Returns ``(target, probe_messages,
        penalty_ticks, repair_step)``; ``target`` ``None`` means a
        session guarantee needs the (down) primary.
        """
        rep = self.replication_config
        nodes = self.nodes
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
                self._gray_probe(nodes[candidate])
                ok, cost = self._retry_outcome(
                    target, candidate, rng, now + penalty
                )
                penalty += cost
                if ok:
                    consulted.append(candidate)
                else:
                    self.abandoned_reads += 1
            probes = 2 * (len(consulted) - 1)
        target, best_version = self._read_target(page, owners, consulted, now)
        stale = [
            c for c in consulted if nodes[c].applied.get(page, 0) < best_version
        ]
        if stale:
            self.read_repairs += len(stale)
            repair = self._read_repair(page, best_version, stale)
        return target, probes, penalty, repair

    def _read_repair(self, page: int, version: int, stale: List[int]):
        """Back-fill the divergent replicas a quorum read observed."""
        interconnect = self.interconnect
        for index in stale:
            node = self.nodes[index]
            step = interconnect.transfer_nowait(self._page_bytes)
            if step is not None:
                yield from step
            if version > node.applied.get(page, 0):
                node.applied[page] = version
                outcome = node.memory.access(page, True)
                if not outcome.hit and outcome.writeback_pages:
                    yield from self._node_writebacks(
                        node, outcome.writeback_pages
                    )

    def _write_core(
        self,
        page: int,
        owners: Tuple[int, ...],
        home,
        leader: Optional[int] = None,
    ):
        now = self.sim.now
        primary = owners[0] if leader is None else leader
        node = self.nodes[primary]
        node.accesses += 1
        downtime = self._crash_probe(node) if self._failures_enabled else 0
        degraded = False
        if self.faults_on:
            self._gray_probe(node)
            degraded = node.gray_until > now
        forwarded = home is not None and primary != home
        if forwarded:
            self.remote_fetches += 1
        if not self.async_mode:
            # Sync replication: the general path with W = N and no
            # apply delay.
            step = self._assemble(
                node, page, True, degraded, downtime, forwarded, 0
            )
            if len(owners) == 1:
                return step
            return self._sync_propagate(step, page, owners)
        version = self._version.get(page, 0) + 1
        if self._anti_entropy:
            self._mark_behind(page, version, owners, primary)
        self._version[page] = version
        node.applied[page] = version
        step = self._assemble(
            node, page, True, degraded, downtime, forwarded, 0
        )
        ack = None
        if len(owners) > 1:
            quorum = self.replication_config.write_quorum
            if quorum > 1:
                # The ack cell: [outstanding count, gate the last
                # acking applier opens].
                ack = [quorum - 1, Gate(self.sim, "write-ack")]
            followers = (
                owners[1:]
                if leader is None
                else [o for o in owners if o != primary]
            )
            for position, replica in enumerate(followers):
                self.replica_writes += 1
                peer = self.nodes[replica]
                peer.apply_queue.append(
                    (
                        page,
                        version,
                        now,
                        ack if position < quorum - 1 else None,
                    )
                )
                depth = len(peer.apply_queue)
                if depth > peer.queue_peak:
                    peer.queue_peak = depth
                peer.apply_gate.open()
        if ack is None:
            # W=1 (or no replicas): the primary apply is the commit.
            if version > self._committed.get(page, 0):
                self._committed[page] = version
            return step
        return self._await_write_quorum(step, ack, page, version)

    def _mark_behind(
        self, page: int, version: int, owners: Tuple[int, ...], writer: int
    ) -> None:
        """Record that a write leaves the page's other owners behind.

        Every ``applied`` value is at most ``_version``, so a node
        holding the latest version cannot be back-filled: only the
        non-writing owners of a freshly written page need a sweep's
        visit.  Sweeps drop caught-up pages lazily, so appliers and
        read-repair never touch the lists.
        """
        if version == 1:
            self._first_write[page] = len(self._version)
        nodes = self.nodes
        for owner in owners:
            if owner == writer:
                continue
            behind = nodes[owner].behind
            position = bisect_left(behind, page)
            if position == len(behind) or behind[position] != page:
                behind.insert(position, page)

    def _await_write_quorum(self, step, ack, page: int, version: int):
        if step is not None:
            yield from step
        gate = ack[1]
        while ack[0] > 0:
            gate.close()
            yield WaitFor(gate)
        if version > self._committed.get(page, 0):
            self._committed[page] = version

    def _sync_propagate(self, step, page: int, owners: Tuple[int, ...]):
        """Synchronous fan-out after the primary's ``step``.

        Replicas that are down are skipped: a crashed replica misses
        the propagation, but its crash already invalidated its buffer —
        on recovery the stale image cannot be served from memory, so the
        skip is consistency-safe.  Over a free interconnect the replicas
        install the image at write time — no disk read — and only the
        dirty victims they evict are written back, after the primary's
        disk work; a throttled interconnect ships each image, then
        installs it, once the primary's work is done.
        """
        interconnect = self.interconnect
        if not interconnect.infinite:
            return self._ship_replicas(step, page, owners)
        now = self.sim.now
        steps = [] if step is None else [step]
        for replica in owners[1:]:
            peer = self.nodes[replica]
            if peer.down_until > now:
                continue
            self.replica_writes += 1
            interconnect.transfer_nowait(self._page_bytes)
            outcome = peer.memory.access(page, True)
            if not outcome.hit and outcome.writeback_pages:
                steps.append(
                    self._node_writebacks(peer, outcome.writeback_pages)
                )
        if not steps:
            return None
        if len(steps) == 1:
            return steps[0]
        return _chain(steps)

    def _ship_replicas(self, step, page: int, owners: Tuple[int, ...]):
        """Throttled-interconnect fan-out (see :meth:`_sync_propagate`)."""
        if step is not None:
            yield from step
        interconnect = self.interconnect
        for replica in owners[1:]:
            peer = self.nodes[replica]
            if peer.down_until > self.sim.now:
                continue
            self.replica_writes += 1
            transfer = interconnect.transfer_nowait(self._page_bytes)
            if transfer is not None:
                yield from transfer
            outcome = peer.memory.access(page, True)
            if not outcome.hit and outcome.writeback_pages:
                yield from self._node_writebacks(
                    peer, outcome.writeback_pages
                )

    def _crash_probe(self, node: ClusterNode) -> int:
        """Per-service crash probe at the serving node (0 = healthy).

        On a crash the node's buffer is already cold (the injector
        invalidated it) and the in-flight request rides out the
        recovery; later requests route around the node via
        ``down_until`` until it resumes.
        """
        downtime = node.failures.crash_check()
        if downtime:
            node.down_until = self.sim.now + downtime
        return downtime

    def _assemble(
        self,
        node: ClusterNode,
        page: int,
        write: bool,
        degraded: bool,
        delay: int,
        forwarded: bool,
        probes: int,
    ):
        """Touch the serving node's buffer and fold the timed parts of
        one page service (``delay`` ticks of downtime and retry
        penalty, the forwarding round trip, ``probes`` quorum messages,
        the disk miss) into a nowait step.

        The buffer is touched at dispatch, except for a forwarded
        service over a throttled interconnect: there the owner touches
        it only once the home node's request message has arrived.
        """
        if forwarded or probes:
            interconnect = self.interconnect
            if not interconnect.infinite:
                if forwarded:
                    return self._timed_tail(
                        delay, probes, None, (node, page, write, degraded)
                    )
            else:
                if forwarded:
                    interconnect.transfer_nowait(self._message_bytes)
                    interconnect.transfer_nowait(self._page_bytes)
                for _ in range(probes):
                    interconnect.transfer_nowait(self._message_bytes)
                probes = 0
        outcome = node.memory.access(page, write)
        if outcome.hit:
            miss = None
        elif degraded:
            miss = self._node_miss_io_degraded(node, outcome)
        else:
            miss = self._node_miss_io(node, outcome)
        if delay or probes:
            return self._timed_tail(delay, probes, miss)
        return miss

    def _timed_tail(self, delay: int, probes: int, miss, forwarded=None):
        """The timed remainder of one page service.

        ``forwarded`` is the deferred ``(node, page, write, degraded)``
        buffer access of a forwarded service: the request message
        crosses first, the owner touches its buffer on arrival, and the
        page travels back after the disk work.
        """
        if delay:
            yield Hold(delay)
        interconnect = self.interconnect
        if forwarded is not None:
            step = interconnect.transfer_nowait(self._message_bytes)
            if step is not None:
                yield from step
        for _ in range(probes):
            step = interconnect.transfer_nowait(self._message_bytes)
            if step is not None:
                yield from step
        if forwarded is not None:
            # The deferred buffer access, with nothing else left to fold.
            miss = self._assemble(*forwarded, 0, False, 0)
        if miss is not None:
            yield from miss
        if forwarded is not None:
            step = interconnect.transfer_nowait(self._page_bytes)
            if step is not None:
                yield from step

    def _applier(self, node: ClusterNode):
        """The per-node replication applier (async mode).

        One despy process per node: drains ``(page, version, enqueued,
        ack)`` entries FIFO, paying the interconnect ship, the
        configured apply delay and any crash downtime before installing
        the image and signalling the write-quorum ack.  Replication lag
        is measured enqueue-to-apply, so queueing, shipping, delay and
        downtime all count.
        """
        sim = self.sim
        queue = node.apply_queue
        gate = node.apply_gate
        interconnect = self.interconnect
        delay = self._apply_delay
        applied = node.applied
        while True:
            if not queue:
                gate.close()
                yield WaitFor(gate)
                continue
            page, version, enqueued, ack = queue.popleft()
            if self.faults_on:
                # The ship honours the retry contract against the
                # page's current primary: an abandoned ship negative-
                # acks (so writers never block on a dead link) and the
                # replica stays stale until anti-entropy or read-repair
                # back-fills it.
                source = self._leader.get(
                    page, self.router.replicas(page)[0]
                )
                self._gray_probe(node)
                ok, cost = self._retry_outcome(
                    source, node.index, node.retry_stream, sim.now
                )
                if cost:
                    yield Hold(cost)
                if not ok:
                    if ack is not None:
                        ack[0] -= 1
                        if ack[0] <= 0:
                            ack[1].open()
                    continue
                if node.gray_until > sim.now and self._gray_ship_extra:
                    yield Hold(self._gray_ship_extra)
            step = interconnect.transfer_nowait(self._page_bytes)
            if step is not None:
                yield from step
            if delay:
                yield Hold(delay)
            down = node.down_until - sim.now
            if down > 0:
                yield Hold(down)
            if version > applied.get(page, 0):
                applied[page] = version
                outcome = node.memory.access(page, True)
                if not outcome.hit and outcome.writeback_pages:
                    yield from self._node_writebacks(
                        node, outcome.writeback_pages
                    )
            self.replica_applies += 1
            self.replica_lag_ticks += sim.now - enqueued
            if ack is not None:
                ack[0] -= 1
                if ack[0] <= 0:
                    ack[1].open()

    # -- Anti-entropy repair -------------------------------------------
    def _repair_sweep(self):
        """One anti-entropy round over the whole cluster.

        Every live node exchanges a Merkle-style version summary (one
        control message per reachable peer) and back-fills each page it
        replicates whose freshest reachable copy is newer than its own,
        paying one page ship per back-fill.  Versions only move
        forward, so a sweep is idempotent and the old primary's
        catch-up after a partition or crash is version-guarded.

        Only the node's ``behind`` pages are visited, in ascending
        order — the same back-fills, in the same order, as a scan of
        every page written before the summaries were exchanged.  The
        next page is looked up in the live list after each ship, so a
        page falling behind above the cursor mid-sweep is still
        visited; a page first written after the snapshot is not.
        """
        sim = self.sim
        nodes = self.nodes
        interconnect = self.interconnect
        router = self.router
        version_of = self._version
        first_write = self._first_write
        for node in nodes:
            if node.down_until > sim.now:
                continue
            peers = [
                other
                for other in nodes
                if other.index != node.index
                and other.down_until <= sim.now
                and self._reachable_at(node.index, other.index, sim.now)
            ]
            if not peers:
                continue
            for _ in peers:
                step = interconnect.transfer_nowait(self._message_bytes)
                if step is not None:
                    yield from step
            snapshot = len(version_of)
            behind = node.behind
            page = -1
            while True:
                position = bisect_right(behind, page)
                if position == len(behind):
                    break
                page = behind[position]
                if first_write[page] >= snapshot:
                    continue
                have = node.applied.get(page, 0)
                if have >= version_of[page]:
                    del behind[position]
                    continue
                owners = router.replicas(page)
                best = have
                source = None
                for owner in owners:
                    if owner == node.index:
                        continue
                    peer = nodes[owner]
                    if peer.down_until > sim.now:
                        continue
                    if not self._reachable_at(node.index, owner, sim.now):
                        continue
                    version = peer.applied.get(page, 0)
                    if version > best:
                        best = version
                        source = owner
                if source is None:
                    continue
                step = interconnect.transfer_nowait(self._page_bytes)
                if step is not None:
                    yield from step
                node.applied[page] = best
                outcome = node.memory.access(page, True)
                if not outcome.hit and outcome.writeback_pages:
                    yield from self._node_writebacks(
                        node, outcome.writeback_pages
                    )
                self.repair_pages += 1

    def drain_repairs(self) -> bool:
        """Schedule the final anti-entropy round of a drained phase.

        The model calls this after the workload drains: the round waits
        for active partitions to heal and crashed nodes to recover
        (convergence is only promised for *healed* faults), then runs
        one sweep, bringing every replica up to the commit point.
        Returns ``False`` when the fault layer or repair is off.
        """
        if not self.faults_on or not self._repair_interval:
            return False
        self.sim.process(self._final_repair(), name="anti-entropy-drain")
        return True

    def _final_repair(self):
        sim = self.sim
        resume = self._partition_until
        for node in self.nodes:
            if node.down_until > resume:
                resume = node.down_until
        if resume > sim.now:
            yield Hold(resume - sim.now)
        yield from self._repair_sweep()

    def _node_miss_io_degraded(self, node: ClusterNode, outcome):
        """Gray-mode variant of :meth:`_node_miss_io`: every disk
        operation at a degraded node is stretched by the configured
        slowdown; the stretch counts as busy time (the disk really is
        occupied that long)."""
        io = node.io
        disk = io.disk
        scale = self._gray_slowdown - 1.0
        for victim in outcome.writeback_pages:
            if not disk.try_acquire_inline():
                yield io._request_disk
            hold = io.write_hold(victim)
            extra = int(hold.duration * scale)
            yield hold
            if extra:
                io.busy_ticks += extra
                yield Hold(extra)
            if not disk.release_inline():
                yield PARK
        if outcome.read_page is not None:
            if not disk.try_acquire_inline():
                yield io._request_disk
            hold = io.read_hold(outcome.read_page)
            extra = int(hold.duration * scale)
            yield hold
            if extra:
                io.busy_ticks += extra
                yield Hold(extra)
            if not disk.release_inline():
                yield PARK

    @staticmethod
    def _node_miss_io(node: ClusterNode, outcome):
        """The disk traffic one buffer miss produced, on the owning node.

        Same inline request/release fast paths as the single-server
        architectures: an uncontended node disk costs one Hold event.
        """
        io = node.io
        disk = io.disk
        for victim in outcome.writeback_pages:
            if not disk.try_acquire_inline():
                yield io._request_disk
            yield io.write_hold(victim)
            if not disk.release_inline():
                yield PARK
        if outcome.read_page is not None:
            if not disk.try_acquire_inline():
                yield io._request_disk
            yield io.read_hold(outcome.read_page)
            if not disk.release_inline():
                yield PARK

    @staticmethod
    def _node_writebacks(node: ClusterNode, victims):
        io = node.io
        disk = io.disk
        for victim in victims:
            if not disk.try_acquire_inline():
                yield io._request_disk
            yield io.write_hold(victim)
            if not disk.release_inline():
                yield PARK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster servers={len(self.nodes)} "
            f"placement={self.router.placement!r} "
            f"replication={self.router.replication}>"
        )
