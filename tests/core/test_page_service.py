"""The cluster's one page-service path (``Cluster.serve_page_nowait``).

Sync replication, async replication, per-node hazards and the fault
layer all run through the same body, so a feature that is configured
but never fires must leave a run exactly as if it were off.  The three
timing rules the merged path keeps are pinned at the ``Cluster`` level:

1. a sync write over a free interconnect installs the replica images at
   write time;
2. a forwarded (object-server) service over a throttled interconnect
   touches the owner's buffer only once the request message arrived;
3. served reads (the stale-rate base) are counted in async mode only.
"""

import dataclasses
import math

import pytest

from repro.core import ArrivalConfig, ClusterConfig, SystemClass, run_replication
from repro.core.failures import FailureConfig
from repro.core.model import VOODBSimulation
from repro.core.parameters import ReplicationConfig
from repro.systems.o2 import o2_config
from tests.core.nowait import as_process

#: A crash hazard so rare that no crash fires within a run.
SILENT_CRASHES = FailureConfig(crash_mtbf_ms=1e15)

SYNC_R2 = (2, ReplicationConfig())
ASYNC_R3 = (3, ReplicationConfig(mode="async", read_quorum=2, write_quorum=2))


def page_service_config(
    sysclass=SystemClass.PAGE_SERVER,
    interconnect_mbps=math.inf,
    replication=SYNC_R2,
    servers=3,
    **changes,
):
    """A small write-heavy cluster with several transactions in flight."""
    copies, consistency = replication
    base = o2_config(nc=10, no=500, cache_mb=0.25, hotn=30)
    return base.with_changes(
        sysclass=sysclass,
        cluster=ClusterConfig(
            servers=servers,
            replication=copies,
            interconnect_mbps=interconnect_mbps,
        ),
        replication=consistency,
        arrivals=ArrivalConfig(mode="poisson", rate_tps=60.0),
        multilvl=8,
        ocb=base.ocb.with_changes(pwrite=0.4),
        **changes,
    )


def phase_fields(results):
    phases = {"main": results.phase, **results.extra_phases}
    return {name: dataclasses.asdict(phase) for name, phase in phases.items()}


class TestSilentHazardLayer:
    @pytest.mark.parametrize(
        "sysclass", [SystemClass.PAGE_SERVER, SystemClass.OBJECT_SERVER]
    )
    @pytest.mark.parametrize("interconnect_mbps", [math.inf, 25.0])
    @pytest.mark.parametrize(
        "replication", [SYNC_R2, ASYNC_R3], ids=["sync-r2", "async-r3-q2"]
    )
    def test_never_firing_crashes_equal_the_layer_off(
        self, sysclass, interconnect_mbps, replication
    ):
        config = page_service_config(sysclass, interconnect_mbps, replication)
        silent = config.with_changes(failures=SILENT_CRASHES)
        off = phase_fields(run_replication(config, seed=5))
        on = phase_fields(run_replication(silent, seed=5))
        assert on["main"]["transactions"] > 0
        assert on["main"]["replica_writes"] > 0
        assert on == off


def _cold_write_page(cluster):
    """A page whose primary and first replica both have cold buffers."""
    for page in range(cluster.object_manager.total_pages):
        owners = cluster.router.replicas(page)
        if not any(cluster.nodes[o].memory.contains(page) for o in owners):
            return page, owners
    raise AssertionError("no cold page")


class TestSyncWriteOverFreeInterconnect:
    def test_replica_installs_before_the_primary_disk_work(self):
        config = page_service_config(failures=SILENT_CRASHES)
        model = VOODBSimulation(config, seed=1)
        cluster = model.cluster
        page, owners = _cold_write_page(cluster)
        primary_disk = cluster.nodes[owners[0]].io
        model.sim.process(as_process(cluster.serve_page_nowait, page, True))
        # Tick 0: the write is dispatched and the primary's cold buffer
        # sent it to disk, which is still busy ...
        model.sim.run(until=0)
        assert cluster.replica_writes == 1
        assert primary_disk.reads == 1
        assert primary_disk.disk.in_use == 1
        # ... yet the replica already holds the shipped image.
        assert cluster.nodes[owners[1]].memory.contains(page)
        model.sim.run()
        assert primary_disk.disk.in_use == 0
        assert cluster.nodes[owners[1]].memory.contains(page)


class TestForwardedServiceOverThrottledInterconnect:
    def test_owner_buffer_touched_when_the_request_arrives(self):
        config = page_service_config(
            SystemClass.OBJECT_SERVER,
            interconnect_mbps=25.0,
            replication=(2, ReplicationConfig(mode="async")),
        )
        model = VOODBSimulation(config, seed=1)
        cluster = model.cluster
        page = 0
        owners = cluster.router.replicas(page)
        home = next(i for i in range(len(cluster.nodes)) if i not in owners)

        def touches():
            return sum(
                cluster.nodes[o].memory.hits + cluster.nodes[o].memory.misses
                for o in owners
            )

        before = touches()
        request_ticks = cluster.interconnect.transfer_ticks(
            config.message_bytes
        )
        assert request_ticks > 1
        model.sim.process(
            as_process(cluster.serve_page_nowait, page, False, home)
        )
        # Dispatched at tick 0: the home node's request is on the wire.
        model.sim.run(until=0)
        assert cluster.remote_fetches == 1
        assert touches() == before
        model.sim.run(until=request_ticks - 1)
        assert touches() == before
        model.sim.run(until=request_ticks)
        assert touches() == before + 1
        model.sim.run()
        assert touches() == before + 1


class TestServedReadsCount:
    @pytest.mark.parametrize(
        "replication, counted",
        [(SYNC_R2, False), (ASYNC_R3, True)],
        ids=["sync", "async"],
    )
    def test_only_async_reads_feed_the_stale_rate(self, replication, counted):
        config = page_service_config(
            replication=replication, failures=SILENT_CRASHES
        )
        metrics = run_replication(config, seed=3).to_metrics()
        assert ("cluster_reads" in metrics) is counted
