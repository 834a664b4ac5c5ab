"""Result containers for VOODB runs.

The paper's headline metric is the **mean number of I/Os necessary to
perform the transactions** (Figures 6-11); the DSTC experiments add
clustering overhead I/Os and cluster statistics (Tables 6-8).  This
module also reports the standard simulation outputs (response times,
throughput, hit rates, utilizations) that VOODB's genericity claims
cover.

:class:`PhaseResults` holds the metrics of one workload phase of one
replication; :class:`SimulationResults` extends it with clustering info
for a complete replication.  Both flatten to ``dict`` for the
:class:`~repro.despy.stats.ReplicationAnalyzer`.

Every scalar phase statistic is declared once, on its ``PhaseResults``
field (:func:`counter`) or property (:func:`derived`).  The model's
phase snapshot/delta, :meth:`PhaseResults.to_metrics`, the report's
fault block, the JSON report blocks and the scenario schema's metric
names are all derived from these declarations (:data:`PHASE_STATS`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.despy.stats import MIN_STEADY_OBSERVATIONS, steady_state_estimate


#: Enabling features.  Each names the :class:`PhaseResults` attribute
#: that is truthy on a phase that ran the feature; a stat is exported by
#: :meth:`PhaseResults.to_metrics` only when its feature is on.
ALWAYS = ""
#: a cluster topology served the phase (per-server figures exist)
CLUSTER = "server_ios"
#: async replication served page reads (only async replicas can be
#: stale, so the stale-read rate exists only there)
EXTENDED = "cluster_reads"
#: the fault-tolerance layer was on
FAULTS = "fault_layer"


@dataclass(frozen=True)
class Stat:
    """Declaration of one phase statistic: a counter or a derived value.

    Counters are :class:`PhaseResults` fields declared with
    :func:`counter`; derived values are properties declared with
    :func:`derived`.  Snapshot/delta collection, ``to_metrics``, the
    report's fault block and the JSON blocks are all read off these
    declarations (see :data:`PHASE_STATS`).
    """

    #: Enabling feature (one of ALWAYS / CLUSTER / EXTENDED / FAULTS).
    feature: str = ALWAYS
    #: Whether ``to_metrics`` exports it (under the attribute's name).
    metric: bool = True
    #: Counters only: dotted path of the source counter on the model
    #: (e.g. ``"cluster.repair_pages"``), read at phase boundaries.
    source: Optional[str] = None
    #: Counters only: the source counts integer ticks, reported in ms.
    ticks: bool = False
    #: Report block listing it: ``"replication"`` (the async-replication
    #: JSON block), ``"faults"`` / ``"recovery"`` (the two lines of the
    #: fault-tolerance block).
    report: Optional[str] = None
    #: Label in the text report's block (default: the name, with
    #: spaces for underscores).
    label: Optional[str] = None


def counter(
    source: str,
    feature: str = ALWAYS,
    *,
    ticks: bool = False,
    metric: bool = True,
    report: Optional[str] = None,
    label: Optional[str] = None,
):
    """A :class:`PhaseResults` field holding the phase delta of ``source``.

    The model's hot paths keep plain ``self.x += 1`` increments; the
    model reads each source once per phase boundary and stores the
    difference — an ``int``, or float milliseconds for a tick counter.
    """
    stat = Stat(feature, metric, source, ticks, report, label)
    return field(default=0.0 if ticks else 0, metadata={"stat": stat})


def derived(feature: str = ALWAYS, report: Optional[str] = None):
    """A :class:`PhaseResults` property exported as a metric."""

    def declare(method):
        method.stat = Stat(feature, report=report)
        return property(method)

    return declare


@dataclass
class PhaseResults:
    """Metrics of one workload phase (a batch of transactions)."""

    transactions: int = counter("tm.transactions_executed")
    object_accesses: int = counter("tm.objects_accessed")
    #: Pages read from disk for transaction processing (usage reads).
    reads: int = counter("io.reads")
    #: Pages written to disk for transaction processing (dirty evictions).
    writes: int = counter("io.writes")
    #: Swap I/Os (virtual-memory model only; included in reads+writes? no:
    #: counted separately and *added* into total_ios).
    swap_reads: int = counter("io.swap_reads", metric=False)
    swap_writes: int = counter("io.swap_writes", metric=False)
    buffer_hits: int = counter("memory.hits", metric=False)
    buffer_misses: int = counter("memory.misses", metric=False)
    prefetched_pages: int = counter("architecture.prefetched_pages", metric=False)
    prefetch_hits: int = counter("architecture.prefetch_hits", metric=False)
    sequential_reads: int = counter("io.sequential_accesses")
    network_messages: int = counter("network.messages")
    network_bytes: int = counter("network.bytes_sent")
    network_time_ms: float = counter("network.busy_ticks", ticks=True)
    lock_acquisitions: int = counter("locks.acquisitions", metric=False)
    lock_waits: int = counter("locks.waits")
    lock_wait_time_ms: float = counter("locks.wait_ticks", ticks=True, metric=False)
    response_time_sum_ms: float = 0.0
    response_time_max_ms: float = 0.0
    #: Per-transaction response times (ms) in completion order — the
    #: observation series behind the steady-state estimates.  Kept out
    #: of :meth:`to_metrics` itself (analyzers aggregate scalars); the
    #: MSER-5/batch-means summary derived from it goes in as the
    #: ``steady_*`` metrics.
    response_times_ms: Tuple[float, ...] = ()
    elapsed_ms: float = counter("sim.now", ticks=True)
    transactions_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Hazards charged during the phase (§5 failures module).
    transient_faults: int = counter("failures.transient_faults")
    crashes: int = counter("failures.crashes")
    downtime_ms: float = counter("failures.downtime_ticks", ticks=True)
    # -- Flow aggregation (0 population = plain closed/open phase) -------
    #: Simulated population the aggregated source tier stood in for.
    aggregation_population: int = 0
    #: Transactions completed via the aggregate arrival stream.
    aggregate_transactions: int = 0
    #: Transactions completed by the probe-cohort user processes.
    probe_transactions: int = 0
    #: Probe-cohort response times (ms) in completion order — the
    #: per-user latency series the aggregate stream cannot observe.
    probe_response_times_ms: Tuple[float, ...] = ()
    #: Fixed-point arrival rate the calibration settled on (tps).
    calibrated_rate_tps: float = 0.0
    #: Pilot iterations the calibration took, and whether it converged
    #: within tolerance before the iteration cap.
    calibration_iterations: int = 0
    calibration_converged: bool = False
    #: Per-iteration ``(rate_tps, pilot_response_ms)`` calibration trace.
    calibration_trace: Tuple[Tuple[float, float], ...] = ()
    # -- Cluster topology (empty tuples = single-server run) -------------
    #: Usage I/Os performed by each server node.
    server_ios: Tuple[int, ...] = ()
    #: Page/object service operations each server node performed.
    server_accesses: Tuple[int, ...] = ()
    #: Disk busy time of each server node (ms).
    server_busy_ms: Tuple[float, ...] = ()
    #: Inter-server network traffic (replica propagation + forwarding).
    interconnect_messages: int = counter("cluster.interconnect.messages", CLUSTER)
    interconnect_bytes: int = counter("cluster.interconnect.bytes_sent", CLUSTER)
    #: Pages a home node fetched from a remote owner (object server).
    remote_fetches: int = counter("cluster.remote_fetches", CLUSTER)
    #: Reads served by a non-primary replica (round-robin balancing).
    replica_reads: int = counter("cluster.replica_reads", CLUSTER)
    #: Page images propagated to non-primary replicas on writes.
    replica_writes: int = counter("cluster.replica_writes", CLUSTER)
    # -- Consistency spectrum (async replication + failover) --------------
    #: Reads that served a page version older than the last acknowledged
    #: write of that page (async replication lag made visible).
    stale_reads: int = counter("cluster.stale_reads", CLUSTER, report="replication")
    #: Shipped page images the per-node appliers installed.
    replica_applies: int = counter(
        "cluster.replica_applies", CLUSTER, report="replication"
    )
    #: Total enqueue-to-apply latency over all applies (ms).
    replica_lag_sum_ms: float = counter(
        "cluster.replica_lag_ticks", CLUSTER, ticks=True, metric=False
    )
    #: Reads rerouted away from a crashed replica.
    read_failovers: int = counter("cluster.read_failovers", CLUSTER)
    #: Writes that queued behind a crashed primary's recovery.
    write_recovery_waits: int = counter("cluster.write_recovery_waits", CLUSTER)
    #: Peak apply-queue depth per server node (async mode only).
    apply_queue_peak: Tuple[int, ...] = ()
    # -- Fault-tolerance layer (FaultConfig / RetryConfig) -----------------
    #: Page reads served in async replication mode (stale-rate base).
    cluster_reads: int = counter("cluster.reads_served", EXTENDED)
    #: Whether the fault layer was active this phase (gates metrics).
    fault_layer: bool = False
    #: Interconnect partitions drawn this phase.
    partitions: int = counter("cluster.partitions", FAULTS, report="faults")
    #: Total simulated time some partition was active (ms).
    partition_ms: float = counter(
        "cluster.partition_ticks", FAULTS, ticks=True, report="faults"
    )
    #: Gray (degraded-mode) episodes drawn across the nodes.
    gray_episodes: int = counter("cluster.gray_episodes", FAULTS, report="faults")
    #: Reads served by a node while it was gray.
    degraded_reads: int = counter("cluster.degraded_reads", FAULTS, report="faults")
    #: Remote-operation attempts that hit the timeout.
    remote_timeouts: int = counter(
        "cluster.remote_timeouts", FAULTS, report="recovery", label="timeouts"
    )
    #: Backoff-and-retry rounds taken after a timeout.
    remote_retries: int = counter(
        "cluster.remote_retries", FAULTS, report="recovery", label="retries"
    )
    #: Peers abandoned after exhausting the retry budget.
    abandoned_reads: int = counter(
        "cluster.abandoned_reads", FAULTS, report="recovery", label="abandoned"
    )
    #: Primary elections held (crashed or partitioned-away leaders).
    elections: int = counter("cluster.elections", FAULTS, report="recovery")
    #: Elections that promoted a different replica to primary.
    promotions: int = counter("cluster.promotions", FAULTS, report="recovery")
    #: Stale page copies anti-entropy back-filled.
    repair_pages: int = counter(
        "cluster.repair_pages", FAULTS, report="recovery", label="repaired pages"
    )
    #: Divergent replicas quorum reads repaired in place.
    read_repairs: int = counter("cluster.read_repairs", FAULTS, report="recovery")

    # ------------------------------------------------------------------
    @derived()
    def total_ios(self) -> int:
        """Usage I/Os of the phase: reads + writes + swap traffic.

        This is the figure the paper plots ("mean number of I/Os" over
        the HOTN transactions, averaged across replications).
        """
        return self.reads + self.writes + self.swap_reads + self.swap_writes

    @derived()
    def swap_ios(self) -> int:
        """Swap traffic of the virtual-memory model."""
        return self.swap_reads + self.swap_writes

    @derived()
    def hit_rate(self) -> float:
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    @derived()
    def mean_response_time_ms(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.response_time_sum_ms / self.transactions

    @derived()
    def throughput_tps(self) -> float:
        """Transactions per (simulated) second."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.transactions / (self.elapsed_ms / 1000.0)

    # ------------------------------------------------------------------
    # Cluster roll-ups
    # ------------------------------------------------------------------
    @derived(CLUSTER)
    def cluster_servers(self) -> int:
        """Server nodes of the cluster topology."""
        return len(self.server_ios)

    @derived(CLUSTER)
    def cluster_imbalance(self) -> float:
        """Max-over-mean per-server I/Os (1.0 = perfectly balanced)."""
        if not self.server_ios:
            return 1.0
        mean = sum(self.server_ios) / len(self.server_ios)
        if mean <= 0:
            return 1.0
        return max(self.server_ios) / mean

    @derived(CLUSTER)
    def cluster_max_utilization(self) -> float:
        """Busiest server's disk utilization over the phase."""
        if not self.server_busy_ms or self.elapsed_ms <= 0:
            return 0.0
        return max(self.server_busy_ms) / self.elapsed_ms

    def server_utilization(self, index: int) -> float:
        """One server's disk utilization over the phase."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.server_busy_ms[index] / self.elapsed_ms

    @derived(CLUSTER, report="replication")
    def replica_lag_ms(self) -> float:
        """Mean enqueue-to-apply latency of shipped page images (ms)."""
        if self.replica_applies <= 0:
            return 0.0
        return self.replica_lag_sum_ms / self.replica_applies

    @derived(EXTENDED, report="replication")
    def stale_reads_per_1000_reads(self) -> float:
        """Stale-read *rate*: stale reads per 1000 served page reads.

        The raw counter scales with the workload; the rate is the
        comparable figure across scenarios (0.0 when no async-mode
        reads ran).
        """
        if self.cluster_reads <= 0:
            return 0.0
        return self.stale_reads * 1000.0 / self.cluster_reads

    # ------------------------------------------------------------------
    # Aggregated-tier roll-ups
    # ------------------------------------------------------------------
    @property
    def aggregated(self) -> bool:
        """Whether this phase ran the flow-aggregated source tier."""
        return self.aggregation_population > 0

    @property
    def probe_mean_response_time_ms(self) -> float:
        """Mean response time over the probe cohort's transactions."""
        if not self.probe_response_times_ms:
            return 0.0
        return sum(self.probe_response_times_ms) / len(
            self.probe_response_times_ms
        )

    def probe_response_percentile(self, quantile: float) -> float:
        """Probe-cohort latency percentile (nearest-rank, ms).

        The point of the probe cohort: percentiles need per-transaction
        observations, which the aggregate stream's counters alone cannot
        provide.  ``quantile`` is in [0, 1].
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not self.probe_response_times_ms:
            return 0.0
        ordered = sorted(self.probe_response_times_ms)
        # Nearest-rank: the smallest observation with at least a
        # ``quantile`` fraction of the sample at or below it, i.e. order
        # statistic ceil(q*n) (1-based).  ``int(q*n)`` overshoots by one
        # whenever q*n is integral (n=100, q=0.95 must read the 95th
        # order statistic, not the 96th).
        rank = math.ceil(quantile * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, rank))]

    # ------------------------------------------------------------------
    # Steady-state estimates (honest open-system statistics)
    # ------------------------------------------------------------------
    @property
    def has_steady_state(self) -> bool:
        """Whether the phase recorded enough observations to estimate."""
        return len(self.response_times_ms) >= MIN_STEADY_OBSERVATIONS

    def steady_state(self, confidence: float = 0.95):
        """MSER-5 truncated batch-means estimate of the response time.

        The raw :attr:`mean_response_time_ms` averages the initial
        transient in; this deletes it first (see
        :func:`repro.despy.stats.steady_state_estimate`) and reports a
        batch-means CI over what remains.  Raises :class:`ValueError`
        when the phase is too short to estimate (see
        :attr:`has_steady_state`).
        """
        return steady_state_estimate(self.response_times_ms, confidence=confidence)

    def to_metrics(self, prefix: str = "") -> Dict[str, float]:
        """Flatten to a metric dict for the ReplicationAnalyzer."""
        metrics = {
            f"{prefix}{name}": float(getattr(self, name))
            for name, stat in PHASE_STATS
            if stat.metric and (not stat.feature or getattr(self, stat.feature))
        }
        if self.aggregated:
            for name in AGGREGATION_METRICS:
                metrics[f"{prefix}{name}"] = float(getattr(self, name))
            if self.probe_response_times_ms:
                probe = (
                    self.probe_mean_response_time_ms,
                    self.probe_response_percentile(0.95),
                )
                for name, value in zip(PROBE_METRICS, probe):
                    metrics[f"{prefix}{name}"] = value
        if self.has_steady_state:
            steady = self.steady_state()
            estimate = (
                steady.point,
                steady.half_width,
                float(steady.truncated),
                float(steady.batches),
            )
            for name, value in zip(STEADY_METRICS, estimate):
                metrics[f"{prefix}{name}"] = value
        servers = range(len(self.server_ios))
        per_server = (
            self.server_ios,
            self.server_accesses,
            [self.server_utilization(index) for index in servers],
            self.apply_queue_peak,
        )
        for name, values in zip(PER_SERVER_METRICS, per_server):
            for index, value in enumerate(values):
                metrics[f"{prefix}server{index}_{name}"] = float(value)
        return metrics


#: Every declared phase statistic as ``(attribute, Stat)``: the counter
#: fields in field order, then the derived properties.
PHASE_STATS: Tuple[Tuple[str, Stat], ...] = tuple(
    (f.name, f.metadata["stat"])
    for f in fields(PhaseResults)
    if "stat" in f.metadata
) + tuple(
    (name, value.fget.stat)
    for name, value in vars(PhaseResults).items()
    if isinstance(value, property) and hasattr(value.fget, "stat")
)

#: The counters alone: ``(field, Stat)`` with a ``source``.
COUNTERS: Tuple[Tuple[str, Stat], ...] = tuple(
    (name, stat) for name, stat in PHASE_STATS if stat.source
)

#: Fields the aggregated source tier exports, and the probe cohort's
#: latency metrics (mean, p95) when the cohort completed transactions.
AGGREGATION_METRICS: Tuple[str, ...] = (
    "aggregation_population",
    "calibrated_rate_tps",
    "calibration_iterations",
    "calibration_converged",
    "aggregate_transactions",
    "probe_transactions",
)
PROBE_METRICS: Tuple[str, ...] = (
    "probe_mean_response_time_ms",
    "probe_p95_response_time_ms",
)

#: Metrics of the MSER-5/batch-means steady-state estimate: point,
#: batch-means CI half-width, truncated observations, batches.
STEADY_METRICS: Tuple[str, ...] = (
    "steady_response_time_ms",
    "steady_response_ci_ms",
    "steady_truncated",
    "steady_batches",
)

#: Per-server metrics, exported as ``server<i>_<name>``: usage I/Os,
#: service operations, disk utilization, peak apply-queue depth.
PER_SERVER_METRICS: Tuple[str, ...] = (
    "total_ios",
    "accesses",
    "utilization",
    "apply_queue_peak",
)


def report_metrics(block: str) -> Tuple[Tuple[str, Optional[str]], ...]:
    """``(metric, label)`` of the stats a report block lists, in order."""
    return tuple(
        (name, stat.label or name.replace("_", " "))
        for name, stat in PHASE_STATS
        if stat.report == block
    )


@dataclass
class ClusteringReport:
    """Outcome of the Clustering Manager over one replication."""

    policy: str = "none"
    reorganizations: int = 0
    #: I/Os spent reorganizing the base (paper Table 6 "clustering
    #: overhead") — reads of old pages plus writes of new pages.
    overhead_reads: int = 0
    overhead_writes: int = 0
    clusters: int = 0
    clustered_objects: int = 0
    moved_objects: int = 0

    @property
    def overhead_ios(self) -> int:
        return self.overhead_reads + self.overhead_writes

    @property
    def mean_objects_per_cluster(self) -> float:
        """Paper Table 7 "mean number of obj./clust."."""
        if self.clusters == 0:
            return 0.0
        return self.clustered_objects / self.clusters

    def to_metrics(self, prefix: str = "clustering_") -> Dict[str, float]:
        return {
            f"{prefix}reorganizations": float(self.reorganizations),
            f"{prefix}overhead_ios": float(self.overhead_ios),
            f"{prefix}clusters": float(self.clusters),
            f"{prefix}objects_per_cluster": self.mean_objects_per_cluster,
            f"{prefix}moved_objects": float(self.moved_objects),
        }


@dataclass
class SimulationResults:
    """Complete results of one VOODB replication."""

    phase: PhaseResults
    clustering: ClusteringReport
    seed: int = 0
    #: Results of extra phases keyed by the name given to ``run_phase``.
    extra_phases: Dict[str, PhaseResults] = field(default_factory=dict)
    #: Kernel perf counters of the whole replication (event-list fast
    #: paths; see :mod:`repro.despy.events`).  Flattened as ``kernel_*``
    #: metrics so the ``voodb scenario run --json`` output can report
    #: where the events of a scenario went.
    kernel: Dict[str, float] = field(default_factory=dict)

    # Convenience pass-throughs for the headline metrics -----------------
    @property
    def total_ios(self) -> int:
        return self.phase.total_ios

    @property
    def mean_response_time_ms(self) -> float:
        return self.phase.mean_response_time_ms

    @property
    def hit_rate(self) -> float:
        return self.phase.hit_rate

    def to_metrics(self) -> Dict[str, float]:
        metrics = self.phase.to_metrics()
        metrics.update(self.clustering.to_metrics())
        for name, phase in self.extra_phases.items():
            metrics.update(phase.to_metrics(prefix=f"{name}_"))
        for name, value in self.kernel.items():
            metrics[f"kernel_{name}"] = float(value)
        return metrics


#: Kernel perf counters a replication records, as ``(name, attribute of
#: the despy Simulation)``; flattened as ``kernel_<name>`` metrics.
KERNEL_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("events_wheel_pushed", "events_wheel_pushed"),
    ("events_pooled_reused", "events_pooled_reused"),
    ("ticks_overflowed", "events_ticks_overflowed"),
    ("wheel_recalibrations", "events_wheel_recalibrations"),
    ("holds_warped", "events_holds_warped"),
)

#: Every metric name a replication can report (per-server metrics with
#: index 0 standing for any ``server<i>_``), for name checks and hints.
METRIC_NAMES: Tuple[str, ...] = (
    tuple(name for name, stat in PHASE_STATS if stat.metric)
    + AGGREGATION_METRICS
    + PROBE_METRICS
    + STEADY_METRICS
    + tuple(f"server0_{name}" for name in PER_SERVER_METRICS)
    + tuple(ClusteringReport().to_metrics())
    + tuple(f"kernel_{name}" for name, _attribute in KERNEL_COUNTERS)
)

_SERVER_METRIC = re.compile(
    r"server\d+_(%s)" % "|".join(PER_SERVER_METRICS)
)


def is_metric_name(name: str) -> bool:
    """Whether a replication can report a metric called ``name``."""
    return name in METRIC_NAMES or _SERVER_METRIC.fullmatch(name) is not None
