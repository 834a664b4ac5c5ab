"""One benchmark workload process: set up, run replications, check them.

Run by ``perfbench/run.py`` in a fresh interpreter with ``src`` on
``PYTHONPATH``; prints one JSON object as its last stdout line::

    python3 perfbench/workload.py MODE SCENARIO_FILE SEED SECONDS

MODE is one of

``setup``
    import, load the scenario and stop when the first replication's
    simulation starts (one set-up sample);
``measure``
    the untraced run: a warm-up round, then rounds of replications back
    to back for SECONDS, then a round at the reference seed whose
    digests must match ``reference.json``;
``trace``
    the same with every layer boundary traced (see ``tracer.py``);
``reference``
    one round, printing each replication's digest (to refresh
    ``reference.json`` after an audited change of simulated behaviour);
``selftest``
    shows that a corrupted reference digest and a broken invariant are
    each counted as a failed replication.

A round is one ``run_scenario(scenario, executor=SerialExecutor(),
base_seed=...)`` call plus formatting its report, the path ``voodb
scenario run`` takes.  SEED picks the replication seeds (see
:func:`round_seed`); the object base is the scenario file's own (OCB
``rseed`` 1) on every seed, because a different base changes the work
per transaction far more than any bound the benchmark could hold.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
#: Run seed of the stored reference digests (its warm-up round).
REFERENCE_SEED = 1
#: Replication seeds of run seed ``s`` start at ``s * SEED_STRIDE``.
SEED_STRIDE = 100_000
#: Paper series each workload is compared against: (figure, x value).
PAPER_REFERENCE = {"texas-swap": ("11", 8)}

class SetupDone(Exception):
    """Raised in ``setup`` mode once the first replication starts."""


# ----------------------------------------------------------------------
# Hooks: capture each replication's results from outside
# ----------------------------------------------------------------------
class Recorder:
    """Collects one record per replication through two light wrappers.

    ``VOODBSimulation.run`` is wrapped to keep the results and read a
    few counters off the model; ``ReplicationJob.execute`` to time the
    whole replication.  Both run once per replication.
    """

    def __init__(self, tracer=None, stop_at_setup: bool = False) -> None:
        self.records = []
        self.tracer = tracer
        self.stop_at_setup = stop_at_setup
        #: ``time.monotonic()`` when the first replication's simulation
        #: started: the end of set-up
        self.setup_done = None

    def install(self) -> None:
        from repro.core.model import VOODBSimulation
        from repro.experiments.executor import ReplicationJob

        recorder = self
        original_run = VOODBSimulation.run
        original_execute = ReplicationJob.execute

        def run(model):
            if recorder.setup_done is None:
                recorder.setup_done = time.monotonic()
                if recorder.stop_at_setup:
                    raise SetupDone
            tracer = recorder.tracer
            if tracer is not None:
                tracer.begin_replication()
            results = original_run(model)
            recorder.records.append(_model_record(model, results, tracer))
            return results

        def execute(job):
            start = time.perf_counter()
            metrics = original_execute(job)
            recorder.records[-1]["host_s"] = time.perf_counter() - start
            return metrics

        VOODBSimulation.run = run
        ReplicationJob.execute = execute


def _model_record(model, results, tracer) -> dict:
    from repro.despy.timebase import MS_PER_TICK

    sim = model.sim
    phase = results.phase
    if model.cluster is not None:
        memories = [node.memory for node in model.cluster.nodes]
        disks = [node.io for node in model.cluster.nodes]
    else:
        memories = [model.memory]
        disks = [model.io]
    elapsed = phase.elapsed_ms
    record = {
        "seed": model.seed,
        "results": results,
        "hotn": model.config.ocb.hotn,
        "busy_shares": [
            (disk.busy_ticks * MS_PER_TICK / elapsed) if elapsed > 0 else 0.0
            for disk in disks
        ],
        "io_busy_ms": sum(disk.busy_ticks for disk in disks) * MS_PER_TICK,
        "objects": len(model.db),
        "pages": model.object_manager._page_map.total_pages,
        "kernel": {
            "events_executed": sim.events_executed,
            "continuations_merged": sim.events_merged_continuations,
            "holds_warped": sim.events_holds_warped,
            "wheel_pushed": sim.events_wheel_pushed,
            "heap_pushed": sim.events_heap_pushed,
            "pooled_reused": sim.events_pooled_reused,
        },
    }
    if tracer is not None:
        record["page_calls"] = sum(
            tracer.memory_calls.get(id(memory), 0) for memory in memories
        )
        record["repair_sweeps"] = tracer.repair_sweeps
        record["retries_answered"] = tracer.retries_answered
    return record


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def digest(results) -> str:
    """SHA-256 over every simulated statistic of one replication.

    Covers the measured phase (all counters and the per-transaction
    response-time series) and the clustering report; leaves out the
    kernel's host-side counters, which a host-only change may move.
    """
    payload = {
        "phase": dataclasses.asdict(results.phase),
        "clustering": dataclasses.asdict(results.clustering),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant_failures(record: dict) -> list:
    """Model invariants checked on one replication's ``PhaseResults``."""
    phase = record["results"].phase
    failures = []
    if phase.transactions != record["hotn"]:
        failures.append(
            f"completed {phase.transactions} of {record['hotn']} transactions"
        )
    if "page_calls" in record:
        accesses = phase.buffer_hits + phase.buffer_misses
        if accesses != record["page_calls"]:
            failures.append(
                f"buffer hits + misses = {accesses}, but the server buffers "
                f"were asked for {record['page_calls']} pages"
            )
    for index, share in enumerate(record["busy_shares"]):
        if not 0.0 <= share <= 1.0:
            failures.append(
                f"server {index} busy share {share!r} outside [0, 1]"
            )
    if phase.replica_lag_sum_ms < 0:
        failures.append(f"replica lag {phase.replica_lag_sum_ms!r} < 0")
    return failures


def load_reference(workload: str) -> dict:
    """Stored digests of ``workload``: replication seed -> digest."""
    with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    if stored["seed"] != REFERENCE_SEED:
        raise ValueError(
            f"{REFERENCE_FILE}: seed {stored['seed']} != {REFERENCE_SEED}"
        )
    digests = stored["workloads"][workload]
    return {int(seed): value for seed, value in digests.items()}


class Checker:
    """Counts replications attempted and failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, records, expected=None) -> None:
        """Check ``records``; ``expected`` maps seed -> digest."""
        for record in records:
            self.attempted += 1
            problems = invariant_failures(record)
            value = record["digest"]
            if expected is not None and expected.get(record["seed"]) != value:
                problems.append(
                    f"digest {value[:12]} != expected "
                    f"{str(expected.get(record['seed']))[:12]}"
                )
            if problems:
                self.failed += 1
                self.reasons.append(
                    f"seed {record['seed']}: " + "; ".join(problems)
                )

    def raised(self, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons.append(f"replication raised {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def round_seed(seed: int, index: int, replications: int) -> int:
    """Base replication seed of round ``index`` of the run with ``seed``.

    No replication seed repeats within a run, and two runs with
    different seeds share none while a run stays under ``SEED_STRIDE``
    replications.
    """
    return seed * SEED_STRIDE + index * replications


def paper_io_error_pct(workload: str, records) -> float:
    """|mean total I/Os - paper benchmark| / paper benchmark, in %;
    -1 for a workload without paper data."""
    if workload not in PAPER_REFERENCE or not records:
        return -1.0
    from repro.systems.reference_data import ALL_FIGURES

    figure, x = PAPER_REFERENCE[workload]
    ref = ALL_FIGURES[figure]
    paper = ref.benchmark[ref.x_values.index(x)]
    mean = sum(r["results"].phase.total_ios for r in records) / len(records)
    return abs(mean - paper) / paper * 100.0


def run(mode: str, path: str, seed: int, seconds: float) -> dict:
    from repro.experiments import report
    from repro.experiments.executor import SerialExecutor
    from repro.scenarios import load_scenario_file, run_scenario

    marks = {"imports_done": time.monotonic()}
    scenario = load_scenario_file(path)
    marks["loaded"] = time.monotonic()
    workload = scenario.name
    replications = scenario.replications

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    recorder = Recorder(tracer=tracer, stop_at_setup=(mode == "setup"))
    recorder.install()
    checker = Checker()

    def one_round(run_seed: int, index: int):
        """One run_scenario + report; returns the round's records."""
        start = len(recorder.records)
        try:
            result = run_scenario(
                scenario,
                executor=SerialExecutor(),
                base_seed=round_seed(run_seed, index, replications),
            )
            report.format_scenario(scenario, result)
        except SetupDone:
            raise
        except Exception as exc:  # a replication that raised counts as failed
            checker.raised(exc)
            del recorder.records[start:]
            return None
        return recorder.records[start:]

    try:
        warmup = one_round(seed, 0)
    except SetupDone:
        warmup = None
    marks["setup_done"] = recorder.setup_done
    out = {"marks": marks, "workload": workload}
    if mode == "setup":
        return out
    window = []
    if warmup is not None and mode != "reference":
        if tracer is not None:
            out["setup_self_s"], out["warmup_span_counts"] = tracer.fold(keep=True)
            self_s, span_counts = {}, {}
        begin = time.perf_counter()
        paused = 0.0
        index = 1
        while time.perf_counter() - begin - paused < seconds:
            records = one_round(seed, index)
            if records is None:
                break
            window.extend(records)
            if tracer is not None:
                # Folding the round's spans is not part of the window.
                fold_start = time.perf_counter()
                seconds_by_layer, counts = tracer.fold(keep=(index == 1))
                for name, value in seconds_by_layer.items():
                    self_s[name] = self_s.get(name, 0.0) + value
                for name, value in counts.items():
                    span_counts[name] = span_counts.get(name, 0) + value
                paused += time.perf_counter() - fold_start
            index += 1
        out["window_s"] = time.perf_counter() - begin - paused
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        out["window_transactions"] = sum(
            r["results"].phase.transactions for r in window
        )
        out["window_events"] = sum(
            r["kernel"]["events_executed"]
            + r["kernel"]["continuations_merged"]
            + r["kernel"]["holds_warped"]
            for r in window
        )
        out["replication_s"] = [r["host_s"] for r in window]
        if tracer is not None:
            out["self_s"] = self_s
            out["span_counts"] = span_counts

    warmup = warmup or []
    for record in warmup + window:
        record["digest"] = digest(record["results"])
    out["digests"] = {str(r["seed"]): r["digest"] for r in warmup + window}
    if mode != "reference" and seed == REFERENCE_SEED:
        checker.check(warmup, load_reference(workload))
    else:
        checker.check(warmup)
    checker.check(window)
    if mode == "measure" and seed != REFERENCE_SEED:
        # Canary round at the reference seed, after the window.
        canary = one_round(REFERENCE_SEED, 0)
        if canary is not None:
            for record in canary:
                record["digest"] = digest(record["results"])
            checker.check(canary, load_reference(workload))

    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["failures"] = checker.reasons[:10]
    # Model counts come from the warm-up round: its seeds depend on the
    # run seed only, so the counts repeat exactly on any host.
    out["warmup_replications"] = len(warmup)
    out["ref_io_error_pct"] = paper_io_error_pct(workload, warmup)
    out["model"] = _model_means(warmup)
    if tracer is not None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"{workload}.spans.npz")
        tracer.save(spans_path)
        out["spans_file"] = os.path.relpath(spans_path)
    return out


def _model_means(records) -> dict:
    """Per-replication means of the model's own counts over ``records``."""
    if not records:
        return {}
    n = len(records)
    phases = [r["results"].phase for r in records]

    def mean(values) -> float:
        return sum(values) / n

    hits = sum(p.buffer_hits for p in phases)
    accesses = hits + sum(p.buffer_misses for p in phases)
    retries = sum(p.remote_retries for p in phases)
    sweeps = sum(r.get("repair_sweeps", 0) for r in records)
    means = {
        "transactions": mean(p.transactions for p in phases),
        "objects": mean(r["objects"] for r in records),
        "pages": mean(r["pages"] for r in records),
        "io.reads": mean(p.reads for p in phases),
        "io.writes": mean(p.writes for p in phases),
        "io.busy_ms": mean(r["io_busy_ms"] for r in records),
        "virtual_memory.swap_reads": mean(p.swap_reads for p in phases),
        "virtual_memory.swap_writes": mean(p.swap_writes for p in phases),
        "buffering.hit_ratio": hits / accesses if accesses else 0.0,
        "locks.waits": mean(p.lock_waits for p in phases),
        "locks.wait_ms": mean(p.lock_wait_time_ms for p in phases),
        "network.messages": mean(p.network_messages for p in phases),
        "network.busy_ms": mean(p.network_time_ms for p in phases),
        "cluster.remote_fetches": mean(p.remote_fetches for p in phases),
        "cluster.interconnect_messages": mean(
            p.interconnect_messages for p in phases
        ),
        "cluster.replica_applies": mean(p.replica_applies for p in phases),
        "cluster.remote_timeouts": mean(p.remote_timeouts for p in phases),
        "cluster.remote_retries": mean(p.remote_retries for p in phases),
        "cluster.abandoned_reads": mean(p.abandoned_reads for p in phases),
        "cluster.elections": mean(p.elections for p in phases),
        "cluster.repair_pages": mean(p.repair_pages for p in phases),
        "cluster.stale_reads": mean(p.stale_reads for p in phases),
        "cluster.retry_success_ratio": (
            sum(r.get("retries_answered", 0) for r in records) / retries
            if retries
            else 0.0
        ),
        "cluster.repair_pages_per_sweep": (
            sum(p.repair_pages for p in phases) / sweeps if sweeps else 0.0
        ),
    }
    for name in records[0]["kernel"]:
        means["despy." + name] = mean(r["kernel"][name] for r in records)
    return means


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def selftest(path: str) -> dict:
    """A corrupted reference digest and a broken invariant both fail."""
    from repro.experiments.executor import SerialExecutor
    from repro.scenarios import load_scenario_file, run_scenario

    scenario = load_scenario_file(path)
    recorder = Recorder()
    recorder.install()
    run_scenario(
        scenario,
        executor=SerialExecutor(),
        base_seed=round_seed(REFERENCE_SEED, 0, scenario.replications),
    )
    records = recorder.records
    for record in records:
        record["digest"] = digest(record["results"])
    reference = load_reference(scenario.name)

    intact = Checker()
    intact.check(records, reference)
    corrupted = dict(reference)
    first = records[0]["seed"]
    corrupted[first] = "0" * 64
    broken_digest = Checker()
    broken_digest.check(records, corrupted)
    doctored = dict(records[0])
    doctored["busy_shares"] = [1.5]
    broken_invariant = Checker()
    broken_invariant.check([doctored], reference)

    ok = (
        intact.failed == 0
        and broken_digest.failed == 1
        and broken_invariant.failed == 1
    )
    return {
        "ok": ok,
        "intact_failed": intact.failed,
        "corrupted_digest_failed": broken_digest.failed,
        "broken_invariant_failed": broken_invariant.failed,
        "reasons": broken_digest.reasons + broken_invariant.reasons,
    }


def main(argv) -> int:
    mode, path = argv[0], argv[1]
    if mode == "selftest":
        out = selftest(path)
    else:
        out = run(mode, path, int(argv[2]), float(argv[3]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
