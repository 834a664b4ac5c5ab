"""The VOODB benchmark: simulator throughput, set-up time, per-layer cost.

Run from the root of a checkout::

    python3 perfbench/run.py --workload texas-swap --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

One client runs replications back to back (a closed loop) through the
path ``voodb scenario run`` takes: ``load_scenario_file``, then
``run_scenario(..., executor=SerialExecutor(), base_seed=...)`` and the
text report, over and over; ``--seed`` picks the replication seeds.  Every run happens in fresh interpreters
started here, one at a time, so no cache, memo or import is warm when
set-up is timed; ``VOODB_CACHE_DIR``, ``VOODB_JOBS`` and
``VOODB_REPLICATIONS`` are removed from their environment.

``--trace 0`` prints the end-to-end metrics: the median of several
set-up samples (each a fresh interpreter that stops when the first
replication starts), then the throughput, replication time, memory and
pass share of one untraced process.  ``--trace 1`` prints the per-layer
metrics: an untraced process and a traced one (``tracer.py``), whose
simulated digests must agree.  The last stdout line is the JSON result;
the lines before it say what was measured.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "workload.py")
WORKLOADS = ("texas-swap", "cluster-sync", "partition-storm")
#: Fresh interpreters timed for set-up besides the measured one.
SETUP_PROBES = 4
#: Whole-run budget; the benchmark must end within 180 s.
BUDGET_S = 170.0
#: Environment variables that would make a run depend on its caller.
SCRUBBED_ENV = ("VOODB_CACHE_DIR", "VOODB_JOBS", "VOODB_REPLICATIONS", "PYTHONPATH")

#: Layers whose self time is reported, by metric name.  A layer's
#: ``.resume`` twin (resumptions of generators its calls returned) is
#: added to it.
SELF_TIME_METRICS = {
    "despy.self_s": ("despy.run",),
    "transaction_manager.self_s": ("transaction_manager",),
    "architectures.access_self_s": ("architectures.access",),
    "virtual_memory.access_self_s": ("virtual_memory.access",),
    "virtual_memory.swizzle_self_s": ("virtual_memory.swizzle",),
    "buffering.access_self_s": ("buffering.access",),
    "locks.acquire_self_s": ("locks.acquire",),
    "locks.release_self_s": ("locks.release",),
    "cluster.serve_self_s": ("cluster.serve",),
    "cluster.applier_s": ("cluster.applier",),
    "cluster.anti_entropy_s": ("cluster.anti_entropy",),
    "replication.self_s": ("replication",),
    "experiments.overhead_s": (
        "experiments.run_sweep",
        "ocb.generate",
        "placement.build",
    ),
    "report.format_s": ("report.format",),
}

#: Model counts reported per replication, from the traced run.
MODEL_METRICS = (
    ("despy.events_executed", "count/rep"),
    ("despy.continuations_merged", "count/rep"),
    ("despy.holds_warped", "count/rep"),
    ("despy.wheel_pushed", "count/rep"),
    ("despy.heap_pushed", "count/rep"),
    ("despy.pooled_reused", "count/rep"),
    ("virtual_memory.swap_reads", "count/rep"),
    ("virtual_memory.swap_writes", "count/rep"),
    ("buffering.hit_ratio", "ratio"),
    ("io.reads", "count/rep"),
    ("io.writes", "count/rep"),
    ("io.busy_ms", "ms/rep"),
    ("locks.waits", "count/rep"),
    ("locks.wait_ms", "ms/rep"),
    ("network.messages", "count/rep"),
    ("network.busy_ms", "ms/rep"),
    ("cluster.remote_fetches", "count/rep"),
    ("cluster.interconnect_messages", "count/rep"),
    ("cluster.replica_applies", "count/rep"),
    ("cluster.remote_timeouts", "count/rep"),
    ("cluster.remote_retries", "count/rep"),
    ("cluster.abandoned_reads", "count/rep"),
    ("cluster.elections", "count/rep"),
    ("cluster.repair_pages", "count/rep"),
    ("cluster.stale_reads", "count/rep"),
    ("cluster.retry_success_ratio", "ratio"),
    ("cluster.repair_pages_per_sweep", "pages/sweep"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = SRC
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Run one child interpreter; its JSON result plus its spawn time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process of {workload}")
    scenario = os.path.join(HERE, "workloads", f"{workload}.yaml")
    command = [sys.executable, CHILD, mode, scenario, str(seed), repr(seconds)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} process of {workload} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(
            f"the {mode} process of {workload} exited with {proc.returncode}:\n"
            + proc.stderr[-3000:]
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"the {mode} process of {workload} printed nothing")
    out = json.loads(lines[-1])
    out["spawned"] = spawned
    if mode in ("setup", "measure", "trace") and (
        out["marks"]["setup_done"] is None
        or (mode != "setup" and not out.get("replication_s"))
    ):
        raise BenchError(
            f"the {mode} process of {workload} measured no replication: "
            + "; ".join(out.get("failures", []))
        )
    return out


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def throughput(out: dict) -> float:
    return out["window_transactions"] / out["window_s"]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    samples = []
    for _ in range(SETUP_PROBES):
        probe = spawn("setup", workload, seed, seconds, deadline)
        samples.append(probe["marks"]["setup_done"] - probe["spawned"])
    out = spawn("measure", workload, seed, seconds, deadline)
    samples.append(out["marks"]["setup_done"] - out["spawned"])
    replications = out["replication_s"]
    attempted, failed = out["attempted"], out["failed"]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "sim_txn_per_s": (throughput(out), "txn/s"),
        "replication_s_p50": (statistics.median(replications), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        "passed_share": (1.0 - failed / attempted, "ratio"),
    }
    notes = [
        f"set-up samples: {len(samples)} fresh interpreters, "
        + ", ".join(f"{s:.3f}" for s in samples)
        + " s",
        f"measured window: {out['window_s']:.3f} s, {len(replications)} "
        f"replications, {out['window_transactions']} simulated transactions",
        f"replication host seconds: median of {len(replications)} samples "
        "(too few for a tail percentile with ten samples beyond it)",
        f"paper Figure 11 I/O error: {out['ref_io_error_pct']:.2f} %"
        if out["ref_io_error_pct"] >= 0
        else "no paper reference data for this workload (unvalidated model)",
    ]
    return metrics, attempted, failed, out["failures"], notes


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    # The untraced run only supplies the digests and the throughput the
    # tracing overhead is taken against, so half a window does.
    plain = spawn("measure", workload, seed, seconds / 2, deadline)
    traced = spawn("trace", workload, seed, seconds, deadline)
    failures = plain["failures"] + traced["failures"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    # The traced run is slower, so it covers a prefix of the untraced
    # run's replication seeds; every seed both ran must agree.
    common = sorted(set(traced["digests"]) & set(plain["digests"]), key=int)
    mismatched = [s for s in common if traced["digests"][s] != plain["digests"][s]]
    if mismatched or not common:
        failed += max(1, len(mismatched))
        failures.append(
            f"traced digests differ from untraced for seeds {mismatched}"
            if common
            else "traced and untraced runs share no replication seed"
        )

    reps = len(traced["replication_s"])
    self_s = traced["self_s"]

    def layer_seconds(layers) -> float:
        return sum(
            self_s.get(layer, 0.0) + self_s.get(layer + ".resume", 0.0)
            for layer in layers
        )

    metrics = {}
    marks = traced["marks"]
    metrics["import_s"] = (marks["imports_done"] - traced["spawned"], "s")
    metrics["scenarios.load_s"] = (marks["loaded"] - marks["imports_done"], "s")
    setup = traced["setup_self_s"]
    metrics["ocb.generate_s"] = (setup.get("ocb.generate", 0.0), "s")
    metrics["placement.build_s"] = (setup.get("placement.build", 0.0), "s")
    model = traced["model"]
    metrics["ocb.objects"] = (model["objects"], "count")
    metrics["placement.pages"] = (model["pages"], "count")

    reported = set()
    for name, layers in SELF_TIME_METRICS.items():
        metrics[name] = (layer_seconds(layers) / reps, "s/rep")
        reported.update(layers)
        reported.update(layer + ".resume" for layer in layers)
    other = sum(v for k, v in self_s.items() if k not in reported)
    metrics["other.self_s"] = (other / reps, "s/rep")
    events = traced["window_events"]
    metrics["despy.host_us_per_event"] = (
        metrics["despy.self_s"][0] * reps / events * 1e6 if events else 0.0,
        "us",
    )
    metrics["architectures.access_calls"] = (
        traced["warmup_span_counts"]["architectures.access"]
        / traced["warmup_replications"],
        "count/rep",
    )
    for name, unit in MODEL_METRICS:
        metrics[name] = (model[name], unit)
    metrics["ref_io_error_pct"] = (plain["ref_io_error_pct"], "%")

    untraced_tps, traced_tps = throughput(plain), throughput(traced)
    metrics["trace.untraced_sim_txn_per_s"] = (untraced_tps, "txn/s")
    metrics["trace.traced_sim_txn_per_s"] = (traced_tps, "txn/s")
    metrics["trace.overhead_ratio"] = (untraced_tps / traced_tps, "ratio")
    residual = traced["window_s"] - sum(self_s.values())
    metrics["trace.residual_s"] = (residual / reps, "s/rep")
    metrics["trace.residual_share"] = (residual / traced["window_s"], "ratio")
    metrics["trace.spans"] = (sum(traced["span_counts"].values()) / reps, "count/rep")

    notes = [
        f"traced window: {traced['window_s']:.3f} s, {reps} replications; "
        f"untraced window: {plain['window_s']:.3f} s, "
        f"{len(plain['replication_s'])} replications",
        f"traced and untraced simulated digests compared on {len(common)} "
        f"replication seeds: {'all agree' if not mismatched else 'DIFFER'}",
        f"model counts: means over the {traced['warmup_replications']} "
        "replications of the warm-up round",
        f"spans of the first two rounds written to {traced['spans_file']}; "
        f"traced process peak RSS {traced['peak_rss_mb']:.1f} MB",
    ]
    return metrics, attempted, failed, failures, notes


def self_test(deadline: float) -> int:
    out = spawn("selftest", "cluster-sync", 1, 0, deadline)
    for reason in out["reasons"]:
        print(f"counted as failed: {reason}")
    print(json.dumps(out))
    return 0 if out["ok"] else 1


def write_reference(deadline: float) -> int:
    from workload import REFERENCE_FILE, REFERENCE_SEED

    digests = {}
    for workload in WORKLOADS:
        out = spawn("reference", workload, REFERENCE_SEED, 0, deadline)
        if out["failed"]:
            raise BenchError(f"{workload}: {out['failures']}")
        digests[workload] = out["digests"]
    stored = {
        "format": "perfbench-reference/v1",
        "seed": REFERENCE_SEED,
        "workloads": digests,
    }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE_FILE, ROOT)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.self_test or args.write_reference or args.workload):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    try:
        # Byte-compile up front so no timed interpreter compiles sources.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", SRC, HERE],
            check=True,
            capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if args.self_test:
            return self_test(deadline)
        if args.write_reference:
            return write_reference(deadline)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, failures, notes = measure(
            args.workload, args.seed, args.seconds, deadline
        )
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}"
    )
    print(
        f"python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"commit {commit()}"
    )
    for note in notes:
        print(note)
    for reason in failures:
        print(f"FAILED: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
