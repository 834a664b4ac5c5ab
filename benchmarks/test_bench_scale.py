"""Bench: the users-vs-cost ramp of the flow-aggregated tier.

One bench walks the population ladder 10^2 -> 10^6 on the scale
scenarios' config (O2, NC=20, NO=2000, 300 hot transactions, think
time ``population * 25 ms`` so the offered load stays ~40 tps at every
rung) and publishes the deterministic per-rung summary — calibrated
rate, pilot iterations, transaction split, I/Os, throughput — under
``results/scale.txt``.  The point of the table is what does *not*
appear in it: the simulated work is population-independent, so the
file proves the tier's cost scales with transactions, not users.

Wall-clock seconds are machine facts, not simulation facts, so they
stay out of the golden: the per-rung timings are printed to stdout and
the bench's total lands in the ``VOODB_BENCH_JSON`` summary (the
``BENCH_13.json`` trajectory snapshot), where the CI bench-drift gate
watches them.
"""

import time

from repro.core.aggregation import clear_calibration_cache
from repro.core.model import run_replication
from repro.core.parameters import AggregationConfig
from repro.systems.o2 import o2_config

#: The population ladder, 10^2 -> 10^6 users.
POPULATIONS = (100, 1_000, 10_000, 100_000, 1_000_000)
PROBE_COHORT = 40
SEED = 1

HEADER = (
    "users",
    "think_s",
    "rate_tps",
    "iters",
    "converged",
    "agg_txns",
    "probe_txns",
    "total_ios",
    "throughput_tps",
)


def scale_config(population: int):
    """The scale scenarios' recipe at an arbitrary population rung."""
    return o2_config(
        nc=20,
        no=2000,
        cache_mb=2.0,
        hotn=300,
        thinktime=population * 25.0,
    ).with_changes(
        aggregation=AggregationConfig(
            population=population, probe_cohort=PROBE_COHORT
        )
    )


def format_scale_ramp() -> str:
    from conftest import fmt_rows

    rows = []
    for population in POPULATIONS:
        clear_calibration_cache()
        started = time.perf_counter()
        phase = run_replication(scale_config(population), seed=SEED).phase
        wall_s = time.perf_counter() - started
        # stdout only — wall clock is not deterministic content.
        print(f"population {population:>9,}: {wall_s:.2f} s wall")
        rows.append(
            (
                population,
                f"{population * 25.0 / 1000.0:g}",
                f"{phase.calibrated_rate_tps:.2f}",
                phase.calibration_iterations,
                "yes" if phase.calibration_converged else "no",
                phase.aggregate_transactions,
                phase.probe_transactions,
                phase.total_ios,
                f"{phase.throughput_tps:.2f}",
            )
        )
    return fmt_rows(
        "Flow-aggregated population ramp (O2, hotn=300, offered ~40 tps, "
        f"seed {SEED}):",
        list(HEADER),
        rows,
    )


def test_bench_scale(regenerate):
    regenerate("scale", format_scale_ramp)
