"""Tests for the ``python -m repro scenario`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.scenarios import scenario_names
from repro.scenarios.builtin import LIBRARY_DIR


class TestParser:
    def test_scenario_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_run_rejects_unknown_name(self, capsys):
        # Names resolve at run time now (any path is also accepted), so
        # a bad catalog name is a clean exit-2 error, not argparse's.
        assert main(["scenario", "run", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "paper-baseline" in err

    def test_describe_rejects_unknown_name(self, capsys):
        assert main(["scenario", "describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_accepts_json_flag(self):
        args = build_parser().parse_args(["scenario", "run", "--json", "cold-cache"])
        assert args.json is True
        assert args.name == "cold-cache"


class TestExecution:
    def test_list_prints_all_names(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_describe_prints_block(self, capsys):
        assert main(["scenario", "describe", "failure-storm"]) == 0
        out = capsys.readouterr().out
        assert "Scenario failure-storm" in out
        assert "metrics:" in out

    def test_run_prints_text_report(self, capsys):
        assert main(["-r", "1", "scenario", "run", "cold-cache"]) == 0
        out = capsys.readouterr().out
        assert "Scenario cold-cache" in out
        assert "total_ios" in out

    def test_run_json_output_parses(self, capsys):
        assert main(["-r", "1", "scenario", "run", "--json", "open-poisson"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "open-poisson"
        assert payload["arrival_mode"] == "poisson"
        assert payload["replications"] == 1
        assert "total_ios" in payload["metrics"]

    def test_run_matches_committed_golden(self, capsys):
        """``scenario run`` with the pinned protocol reproduces the
        golden byte-for-byte (modulo the trailing newline publish adds)."""
        from pathlib import Path

        golden = (
            Path(__file__).resolve().parents[2]
            / "results"
            / "scenario_paper_baseline.txt"
        )
        assert main(["scenario", "run", "paper-baseline"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == golden.read_text(encoding="utf-8").rstrip("\n")

    def test_output_file_appended(self, tmp_path, capsys):
        sink = tmp_path / "scenario.txt"
        assert main(["-r", "1", "-o", str(sink), "scenario", "run", "cold-cache"]) == 0
        capsys.readouterr()
        assert "Scenario cold-cache" in sink.read_text()

    def test_bad_replications_exit_code(self, capsys):
        assert main(["-r", "0", "scenario", "run", "cold-cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_hotn_scales_the_workload(self, capsys):
        args = ["-r", "1", "--hotn", "10", "scenario", "run", "--json", "cold-cache"]
        assert main(args) == 0
        scaled = json.loads(capsys.readouterr().out)
        assert main(["-r", "1", "scenario", "run", "--json", "cold-cache"]) == 0
        full = json.loads(capsys.readouterr().out)
        # 10 transactions cost far fewer I/Os than the pinned 200.
        assert scaled["metrics"]["total_ios"]["means"][0] < (
            full["metrics"]["total_ios"]["means"][0]
        )

    def test_bad_hotn_exit_code(self, capsys):
        assert main(["--hotn", "0", "scenario", "run", "cold-cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_honors_output_flag(self, tmp_path, capsys):
        sink = tmp_path / "catalog.txt"
        assert main(["-o", str(sink), "scenario", "list"]) == 0
        capsys.readouterr()
        assert "paper-baseline" in sink.read_text()


class TestScenarioFiles:
    """The declarative-file face: run/describe/validate on paths."""

    LIBRARY = str(LIBRARY_DIR)

    def _write(self, tmp_path, text, name="study.yaml"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_run_accepts_scenario_file(self, tmp_path, capsys):
        from repro.scenarios import dump_scenario, get_scenario

        scenario = get_scenario("cold-cache")
        text = dump_scenario(scenario).replace("name: cold-cache", "name: my-study")
        path = self._write(tmp_path, text)
        assert main(["-r", "1", "--hotn", "10", "scenario", "run", path]) == 0
        out = capsys.readouterr().out
        assert "Scenario my-study" in out

    def test_describe_accepts_scenario_file(self, capsys):
        path = f"{self.LIBRARY}/open-bursty.yaml"
        assert main(["scenario", "describe", path]) == 0
        assert "Scenario open-bursty" in capsys.readouterr().out

    def test_run_file_reports_schema_errors(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "format: voodb-scenario/v1\nname: broken\ntitle: t\n"
            "description: d\nconfig:\n  buffsiz: 10\n",
        )
        assert main(["scenario", "run", path]) == 2
        err = capsys.readouterr().err
        assert "buffsiz" in err
        assert "buffsize" in err

    def test_run_missing_file_exit_code(self, capsys):
        assert main(["scenario", "run", "does/not/exist.yaml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_accepts_library(self, capsys):
        import glob

        paths = sorted(glob.glob(f"{self.LIBRARY}/*.yaml"))
        assert paths
        assert main(["scenario", "validate", *paths]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(paths)

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        path = self._write(tmp_path, "format: wrong\nname: x\n")
        assert main(["scenario", "validate", path]) == 2
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parent / "hostile").glob("*.yaml")),
        ids=lambda path: path.stem,
    )
    def test_validate_rejects_hostile_fixture(self, path, capsys):
        assert main(["scenario", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
