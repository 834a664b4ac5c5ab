"""Unit tests for the bench-drift gate (``check_regression.py``)."""

import json

import pytest

from check_regression import (
    check_regression,
    geomean_drift,
    load_bench_means,
    main,
)


def write(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLoadBenchMeans:
    def test_conftest_summary_shape(self, tmp_path):
        path = write(
            tmp_path / "bench.json",
            {"total_wall_s": 3.0, "benches": {"figure6": 2.0, "table6": 1.0}},
        )
        assert load_bench_means(path) == {"figure6": 2.0, "table6": 1.0}

    def test_trajectory_snapshot_prefers_post_section(self, tmp_path):
        path = write(
            tmp_path / "BENCH_X.json",
            {
                "pre_pr_baseline": {"benches": {"figure6": 9.0}},
                "post_pr_fast_path": {"benches": {"figure6": 2.0}},
            },
        )
        assert load_bench_means(path) == {"figure6": 2.0}

    def test_pytest_benchmark_shape(self, tmp_path):
        path = write(
            tmp_path / "bench_pytest.json",
            {
                "benchmarks": [
                    {"name": "test_bench_figure6", "stats": {"mean": 1.5}},
                    {"name": "broken", "stats": {}},
                ]
            },
        )
        assert load_bench_means(path) == {"test_bench_figure6": 1.5}

    def test_rejects_shapeless_json(self, tmp_path):
        path = write(tmp_path / "nope.json", {"hello": "world"})
        with pytest.raises(ValueError, match="no per-bench timings"):
            load_bench_means(path)


class TestCheckRegression:
    def test_no_regression_within_threshold(self):
        assert (
            check_regression({"a": 1.0, "b": 2.0}, {"a": 1.2, "b": 2.4}) == []
        )

    def test_flags_regression_past_threshold(self):
        flagged = check_regression({"a": 1.0}, {"a": 1.6}, threshold=0.25)
        assert len(flagged) == 1
        name, base, cur, ratio = flagged[0]
        assert (name, base, cur) == ("a", 1.0, 1.6)
        assert ratio == pytest.approx(1.6)

    def test_worst_regression_first(self):
        flagged = check_regression(
            {"a": 1.0, "b": 1.0}, {"a": 1.5, "b": 3.0}, threshold=0.25
        )
        assert [name for name, *_ in flagged] == ["b", "a"]

    def test_ignores_benches_only_on_one_side(self):
        assert check_regression({"a": 1.0}, {"b": 99.0}) == []

    def test_noise_floor_skips_tiny_benches(self):
        # 0.01s -> 0.04s is a 4x "regression" but pure scheduling noise.
        assert (
            check_regression({"a": 0.01}, {"a": 0.04}, min_seconds=0.5) == []
        )
        flagged = check_regression({"a": 0.01}, {"a": 0.8}, min_seconds=0.5)
        assert len(flagged) == 1

    def test_improvements_never_flag(self):
        assert check_regression({"a": 10.0}, {"a": 0.5}) == []


class TestGeomeanDrift:
    def test_balanced_suite_drifts_one(self):
        drift = geomean_drift({"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 1.0})
        assert drift == pytest.approx(1.0)

    def test_uniform_slowdown(self):
        drift = geomean_drift({"a": 1.0, "b": 4.0}, {"a": 1.5, "b": 6.0})
        assert drift == pytest.approx(1.5)

    def test_none_when_nothing_clears_the_floor(self):
        assert geomean_drift({"a": 0.01}, {"a": 0.02}, min_seconds=0.5) is None


class TestMain:
    def test_green_path_exit_zero(self, tmp_path, capsys):
        baseline = write(tmp_path / "base.json", {"benches": {"a": 1.0}})
        current = write(tmp_path / "cur.json", {"benches": {"a": 1.1}})
        assert main(["--baseline", baseline, "--current", current]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_geomean_regression_exit_one(self, tmp_path, capsys):
        baseline = write(tmp_path / "base.json", {"benches": {"a": 1.0}})
        current = write(tmp_path / "cur.json", {"benches": {"a": 2.0}})
        assert main(["--baseline", baseline, "--current", current]) == 1
        out = capsys.readouterr().out
        assert "geomean regressed" in out

    def test_thin_spread_regression_caught_by_geomean(self, tmp_path, capsys):
        # Every bench +40%: under the +150% hard gate, over the +25%
        # geomean threshold — the failure mode per-bench gating misses.
        baseline = write(
            tmp_path / "base.json",
            {"benches": {"a": 1.0, "b": 2.0, "c": 3.0}},
        )
        current = write(
            tmp_path / "cur.json",
            {"benches": {"a": 1.4, "b": 2.8, "c": 4.2}},
        )
        assert main(["--baseline", baseline, "--current", current]) == 1
        assert "geomean regressed" in capsys.readouterr().out

    def test_single_blowup_trips_the_hard_gate(self, tmp_path, capsys):
        # Geomean stays under +25% because the other benches improved,
        # but one bench past +150% fails outright.
        baseline = write(
            tmp_path / "base.json",
            {"benches": {"a": 1.0, "b": 4.0, "c": 4.0}},
        )
        current = write(
            tmp_path / "cur.json",
            {"benches": {"a": 3.0, "b": 2.0, "c": 2.0}},
        )
        assert main(["--baseline", baseline, "--current", current]) == 1
        out = capsys.readouterr().out
        assert "hard gate" in out
        assert "a: 1.000s -> 3.000s" in out

    def test_missing_baseline_uses_fallback(self, tmp_path, capsys):
        current = write(tmp_path / "cur.json", {"benches": {"a": 1.0}})
        fallback = write(tmp_path / "BENCH_X.json", {"benches": {"a": 1.0}})
        missing = str(tmp_path / "absent.json")
        assert (
            main(
                [
                    "--baseline",
                    missing,
                    "--current",
                    current,
                    "--fallback",
                    fallback,
                ]
            )
            == 0
        )
        assert "using committed fallback" in capsys.readouterr().out

    def test_missing_baseline_and_fallback_fails_by_default(
        self, tmp_path, capsys
    ):
        current = write(tmp_path / "cur.json", {"benches": {"a": 1.0}})
        missing = str(tmp_path / "absent.json")
        gone = str(tmp_path / "no-fallback.json")
        assert (
            main(
                [
                    "--baseline",
                    missing,
                    "--current",
                    current,
                    "--fallback",
                    gone,
                ]
            )
            == 2
        )

    def test_allow_missing_baseline(self, tmp_path, capsys):
        current = write(tmp_path / "cur.json", {"benches": {"a": 1.0}})
        missing = str(tmp_path / "absent.json")
        gone = str(tmp_path / "no-fallback.json")
        assert (
            main(
                [
                    "--baseline",
                    missing,
                    "--current",
                    current,
                    "--fallback",
                    gone,
                    "--allow-missing",
                ]
            )
            == 0
        )
        assert "skipping the bench gate" in capsys.readouterr().out

    def test_real_committed_baseline_parses(self, capsys):
        from pathlib import Path

        bench2 = Path(__file__).resolve().parent.parent / "BENCH_2.json"
        means = load_bench_means(str(bench2))
        assert "figure6" in means and all(v > 0 for v in means.values())

    def test_default_fallback_parses(self):
        from check_regression import DEFAULT_FALLBACK

        means = load_bench_means(DEFAULT_FALLBACK)
        assert "figure6" in means
        assert all(v > 0 for v in means.values())
