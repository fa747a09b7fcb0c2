"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.experiments.runner import run_experiment
from repro.metrics.report import format_table


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "spider-waterfilling"
        assert args.topology == "isp"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])


class TestCommands:
    def test_schemes_lists_all(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "spider-waterfilling" in out
        assert "max-flow" in out

    def test_run_prints_table(self, capsys):
        code = main(
            [
                "run",
                "--scheme",
                "shortest-path",
                "--topology",
                "line-4",
                "--transactions",
                "30",
                "--capacity",
                "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success_ratio_%" in out
        assert "shortest-path" in out

    def test_run_dispatch_stats(self, capsys):
        code = main(
            [
                "run",
                "--scheme",
                "spider-waterfilling",
                "--topology",
                "line-4",
                "--transactions",
                "30",
                "--capacity",
                "1000",
                "--dispatch-stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dispatch stats:" in out
        assert "cohorts" in out
        assert "batched_units" in out

    def test_engine_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", "line-4", "--engine", "legacy"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option", [["--shards", "2"], ["--shard-epoch", "5"], ["--sanitize"]]
    )
    def test_sharding_options_are_gone(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", "line-4", *option])
        assert exc.value.code == 2

    def test_compare_runs_multiple_schemes(self, capsys):
        code = main(
            [
                "compare",
                "--schemes",
                "shortest-path,spider-waterfilling",
                "--topology",
                "cycle-5",
                "--transactions",
                "30",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shortest-path" in out
        assert "spider-waterfilling" in out

    def test_sweep_prints_rows_per_capacity(self, capsys):
        argv = [
            "sweep",
            "--capacities",
            "500,1000",
            "--schemes",
            "shortest-path",
            "--topology",
            "cycle-5",
            "--transactions",
            "20",
        ]
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        assert "500" in out and "1000" in out
        # Each row is the single run of its cell, at the base seed.
        config = _config_from_args(build_parser().parse_args(argv))
        rows = []
        for capacity in (500.0, 1000.0):
            metrics = run_experiment(
                config.with_overrides(capacity=capacity, scheme="shortest-path")
            )
            rows.append(
                [
                    f"{capacity:g}",
                    "shortest-path",
                    f"{100 * metrics.success_ratio:.2f}",
                    f"{100 * metrics.success_volume:.2f}",
                ]
            )
        table = format_table(
            ["capacity", "scheme", "success_ratio_%", "success_volume_%"],
            rows,
            title="capacity sweep on cycle-5",
        )
        assert out == table + "\n"

    def test_decompose_fig4(self, capsys):
        assert main(["decompose", "--topology", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "nu(C*): 8" in out
        assert "66.67%" in out

    def test_decompose_workload(self, capsys):
        code = main(
            ["decompose", "--topology", "cycle-5", "--transactions", "50"]
        )
        assert code == 0
        assert "circulation fraction" in capsys.readouterr().out
