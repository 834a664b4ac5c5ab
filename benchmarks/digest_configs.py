"""Kernel-equivalence digests: 21 pinned configs, one hex digest each.

The PR-5/PR-6 equivalence methodology: run one replication of each
pinned configuration, flatten its full metric dictionary (kernel
counters included) to canonical JSON, and hash it.  Two kernels are
*equivalent* exactly when every digest matches — the check that lets
the compiled (mypyc) kernel, the pure-Python kernel, and any future
event-list rewrite be swapped with confidence::

    # pure-Python side
    PYTHONPATH=src python benchmarks/digest_configs.py --out pure.json
    # compiled side (after pip install -e .[compiled] with VOODB_MYPYC=1)
    VOODB_COMPILED=1 PYTHONPATH=src python benchmarks/digest_configs.py \
        --compare pure.json

``--compare`` exits 1 on the first mismatch, printing both digests per
config.  The config set deliberately crosses every subsystem the tick
refactor touched: system classes, replacement policies, clustering,
cluster topologies, virtual memory, prefetching, failure injection,
lock contention and write traffic.  Six cluster configs cover the
consistency spectrum (sync and async replication, quorums, free and
throttled interconnects, crashes, partitions), so a refactor of the
cluster's page service gets a full-metric equivalence check too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from repro.core import run_replication
from repro.core.failures import FailureConfig, FaultConfig
from repro.core.parameters import (
    ClusterConfig,
    ReplicationConfig,
    SystemClass,
    VOODBConfig,
)
from repro.ocb.parameters import OCBConfig
from repro.systems.o2 import o2_config
from repro.systems.texas import texas_config

#: Transactions per pinned run: small enough for seconds-per-config,
#: large enough to exercise reorganizations, evictions and contention.
_HOTN = 300


def _ocb(**overrides) -> OCBConfig:
    overrides.setdefault("hotn", _HOTN)
    return OCBConfig(nc=20, no=5000, **overrides)


def pinned_configs() -> dict:
    """The 21 pinned (name -> config) equivalence points."""
    base = VOODBConfig(ocb=_ocb())
    writes = VOODBConfig(ocb=_ocb(pwrite=0.3))
    # Four users keep several page services in flight at once, so the
    # cluster configs see interconnect contention and crash failovers.
    shared = writes.with_changes(nusers=4)
    throttled_r2 = ClusterConfig(
        servers=3, replication=2, interconnect_mbps=25.0
    )
    async_r3 = shared.with_changes(
        cluster=ClusterConfig(servers=3, replication=3),
        replication=ReplicationConfig(
            mode="async", read_quorum=2, write_quorum=2
        ),
    )
    return {
        "default": base,
        # nusers > multilvl so the multiprogramming cap actually binds.
        "mpl-2": base.with_changes(multilvl=2, nusers=8),
        "object-server": base.with_changes(sysclass=SystemClass.OBJECT_SERVER),
        "db-server": base.with_changes(sysclass=SystemClass.DB_SERVER),
        "lfu": base.with_changes(pgrep="LFU"),
        "mru": base.with_changes(pgrep="MRU"),
        "fifo": base.with_changes(pgrep="FIFO"),
        "prefetch-cluster": base.with_changes(prefetch="cluster"),
        "writes": writes,
        "contended-locks": VOODBConfig(
            ocb=_ocb(pwrite=0.3), multilvl=10, nusers=10
        ),
        "timed-locks": base.with_changes(getlock=5.0, rellock=2.5),
        "failures": base.with_changes(
            failures=FailureConfig(
                transient_mtbf_ms=500.0, crash_mtbf_ms=8_000.0
            )
        ),
        "cluster-3": base.with_changes(
            cluster=ClusterConfig(servers=3, placement="hash")
        ),
        "cluster-sync-r2": shared.with_changes(
            cluster=ClusterConfig(servers=3, replication=2)
        ),
        "cluster-sync-r2-25mbps": shared.with_changes(cluster=throttled_r2),
        "cluster-object-server-25mbps": shared.with_changes(
            sysclass=SystemClass.OBJECT_SERVER, cluster=throttled_r2
        ),
        "cluster-async-quorum": async_r3,
        "cluster-async-crashes": async_r3.with_changes(
            failures=FailureConfig(crash_mtbf_ms=8_000.0)
        ),
        "cluster-partitions": async_r3.with_changes(
            faults=FaultConfig(
                partition_mtbf_ms=1_500.0,
                partition_heal_ms=400.0,
                election_delay_ms=25.0,
                repair_interval_ms=250.0,
            )
        ),
        "texas-vm": texas_config(nc=20, no=5000, memory_mb=16, hotn=_HOTN),
        "o2-dstc": o2_config(
            nc=20, no=5000, cache_mb=4, hotn=_HOTN
        ).with_changes(clustp="dstc"),
    }


def digest_config(config: VOODBConfig, seed: int = 1) -> str:
    """Hex digest of one replication's complete metric dictionary."""
    metrics = run_replication(config, seed=seed).to_metrics()
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_digests(seed: int = 1) -> dict:
    digests = {}
    for name, config in pinned_configs().items():
        digests[name] = digest_config(config, seed=seed)
        print(f"{name:>28}  {digests[name]}")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hex-digest the 21 pinned kernel-equivalence configs."
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the digests JSON here")
    parser.add_argument(
        "--compare",
        help="digests JSON from another kernel; exit 1 on any mismatch",
    )
    args = parser.parse_args(argv)

    from repro.despy import KERNEL_BACKEND

    print(f"kernel backend: {KERNEL_BACKEND}")
    digests = run_digests(seed=args.seed)
    if args.out:
        payload = {"seed": args.seed, "digests": digests}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"digests written to {args.out}")
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            other = json.load(handle)["digests"]
        mismatched = sorted(
            name
            for name in set(digests) | set(other)
            if digests.get(name) != other.get(name)
        )
        if mismatched:
            print(f"\nFAIL: {len(mismatched)} digest mismatch(es):")
            for name in mismatched:
                print(f"  {name}:")
                print(f"    this run: {digests.get(name, '<missing>')}")
                print(f"    compare:  {other.get(name, '<missing>')}")
            return 1
        print(f"\nOK: all {len(digests)} digests match {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
