"""Bench-drift gate: fail CI when the bench suite's wall time regresses.

Compares a *current* benchmark timing summary against a *baseline* and
exits non-zero when either

* the **geomean** of the per-bench current/baseline ratios drifts past
  ``--threshold`` (the suite as a whole got slower — a geomean weights
  every bench equally, so a regression spread thinly across many benches
  is caught even though no single bench trips a per-bench limit), or
* any **single bench** regresses past the ``--per-bench-threshold`` hard
  gate (+150% by default — a localized blow-up fails even when the rest
  of the suite's improvements would hide it from the geomean).

When the ``--baseline`` file does not exist (e.g. the first CI run on a
branch with no previous artifact), the committed trajectory snapshot
given by ``--fallback`` (default: the repo's ``BENCH_13.json``) is used
instead.  Three baseline shapes are understood:

* the ``VOODB_BENCH_JSON`` summary the bench conftest writes
  (``{"benches": {name: seconds}, "total_wall_s": ...}``) — this is
  also what the CI workflow uploads as the ``benchmark-json`` artifact,
  so the previous main run's ``bench.json`` drops straight in;
* the committed ``BENCH_*.json`` trajectory snapshots (the
  ``post_pr_*`` section's ``benches`` dict is used);
* pytest-benchmark's ``--benchmark-json`` output
  (``{"benchmarks": [{"name": ..., "stats": {"mean": ...}}]}``).

Tiny benches are pure scheduling noise on shared CI runners, so means
below ``--min-seconds`` (on both sides) are skipped; benches present in
only one file are reported but never fail the gate (the suite is
allowed to grow).

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_2.json --current bench.json --threshold 0.25
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, Optional

#: Committed trajectory snapshot used when the baseline artifact is
#: missing (first run on a branch, expired CI artifact...).
DEFAULT_FALLBACK = str(Path(__file__).resolve().parent.parent / "BENCH_13.json")


def _from_conftest_summary(payload: dict) -> Optional[Dict[str, float]]:
    benches = payload.get("benches")
    if isinstance(benches, dict) and benches:
        return {str(name): float(secs) for name, secs in benches.items()}
    return None


def _from_trajectory_snapshot(payload: dict) -> Optional[Dict[str, float]]:
    # BENCH_*.json: prefer the post-PR section (the state the snapshot
    # records); fall back to any section carrying a benches dict.
    sections = [
        value
        for _key, value in sorted(payload.items())
        if isinstance(value, dict) and isinstance(value.get("benches"), dict)
    ]
    post = [
        value
        for key, value in sorted(payload.items())
        if key.startswith("post") and isinstance(value, dict)
    ]
    for section in post + sections:
        benches = _from_conftest_summary(section)
        if benches:
            return benches
    return None


def _from_pytest_benchmark(payload: dict) -> Optional[Dict[str, float]]:
    records = payload.get("benchmarks")
    if not isinstance(records, list):
        return None
    means: Dict[str, float] = {}
    for record in records:
        try:
            means[str(record["name"])] = float(record["stats"]["mean"])
        except (KeyError, TypeError, ValueError):
            continue
    return means or None


def load_bench_means(path: str) -> Dict[str, float]:
    """Per-bench mean seconds from any of the supported JSON shapes."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for parse in (
        _from_conftest_summary,
        _from_trajectory_snapshot,
        _from_pytest_benchmark,
    ):
        means = parse(payload)
        if means:
            return means
    raise ValueError(f"{path}: no per-bench timings found")


def check_regression(
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float = 0.25,
    min_seconds: float = 0.5,
) -> list:
    """Benches whose mean regressed by more than ``threshold``.

    Returns ``(name, baseline_s, current_s, ratio)`` tuples, worst
    first.  A bench is judged only when present in both summaries and at
    least ``min_seconds`` on one side (sub-noise benches are skipped).
    """
    regressions = []
    for name, base_mean in baseline.items():
        cur_mean = current.get(name)
        if cur_mean is None:
            continue
        if base_mean < min_seconds and cur_mean < min_seconds:
            continue
        if base_mean <= 0:
            continue
        ratio = cur_mean / base_mean
        if ratio > 1.0 + threshold:
            regressions.append((name, base_mean, cur_mean, ratio))
    regressions.sort(key=lambda item: item[3], reverse=True)
    return regressions


def geomean_drift(
    baseline: Dict[str, float],
    current: Dict[str, float],
    min_seconds: float = 0.5,
) -> Optional[float]:
    """Geometric mean of the current/baseline ratios above the floor.

    > 1.0 means the suite got slower overall.  ``None`` when no bench is
    shared and above the noise floor.
    """
    logs = []
    for name, base_mean in baseline.items():
        cur_mean = current.get(name)
        if cur_mean is None or base_mean <= 0 or cur_mean <= 0:
            continue
        if base_mean < min_seconds and cur_mean < min_seconds:
            continue
        logs.append(math.log(cur_mean / base_mean))
    if not logs:
        return None
    return math.exp(sum(logs) / len(logs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when the bench suite regresses past the thresholds."
    )
    parser.add_argument("--baseline", required=True, help="baseline timings JSON")
    parser.add_argument("--current", required=True, help="current timings JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative geomean regression (0.25 = +25%%)",
    )
    parser.add_argument(
        "--per-bench-threshold",
        type=float,
        default=1.5,
        help="hard per-bench gate: any single bench past this relative "
        "regression fails outright (1.5 = +150%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        help="ignore benches faster than this on both sides (noise floor)",
    )
    parser.add_argument(
        "--fallback",
        default=DEFAULT_FALLBACK,
        help="committed snapshot used when --baseline does not exist "
        "(default: the repo's BENCH_13.json)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="exit 0 (with a notice) when neither the baseline file nor "
        "the fallback exists",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        parser.error("--threshold must be > 0")
    if args.per_bench_threshold <= 0:
        parser.error("--per-bench-threshold must be > 0")

    try:
        baseline = load_bench_means(args.baseline)
    except FileNotFoundError:
        try:
            baseline = load_bench_means(args.fallback)
            print(
                f"no baseline at {args.baseline}; using committed fallback "
                f"{args.fallback}"
            )
        except (FileNotFoundError, ValueError):
            if args.allow_missing:
                print(
                    f"no baseline at {args.baseline} and no fallback at "
                    f"{args.fallback}; skipping the bench gate"
                )
                return 0
            print(f"error: baseline {args.baseline} not found", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        current = load_bench_means(args.current)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    shared = sorted(set(baseline) & set(current))
    new = sorted(set(current) - set(baseline))
    gone = sorted(set(baseline) - set(current))
    print(
        f"bench gate: {len(shared)} shared benches, geomean threshold "
        f"+{args.threshold:.0%}, per-bench hard gate "
        f"+{args.per_bench_threshold:.0%}, noise floor {args.min_seconds}s"
    )
    if new:
        print(f"  new benches (not gated): {', '.join(new)}")
    if gone:
        print(f"  benches missing from current run: {', '.join(gone)}")

    failed = False
    drift = geomean_drift(baseline, current, min_seconds=args.min_seconds)
    if drift is None:
        print("  geomean: no benches above the noise floor to compare")
    else:
        print(f"  geomean drift: {(drift - 1.0):+.1%}")
        if drift > 1.0 + args.threshold:
            failed = True
            print(
                f"  geomean regressed past the +{args.threshold:.0%} "
                "threshold"
            )

    regressions = check_regression(
        baseline,
        current,
        threshold=args.per_bench_threshold,
        min_seconds=args.min_seconds,
    )
    if regressions:
        failed = True
        print(f"  {len(regressions)} bench(es) regressed past the hard gate:")
        for name, base_mean, cur_mean, ratio in regressions:
            print(
                f"    {name}: {base_mean:.3f}s -> {cur_mean:.3f}s "
                f"({(ratio - 1.0):+.0%})"
            )
    if not failed:
        print("  no regressions past the thresholds")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
