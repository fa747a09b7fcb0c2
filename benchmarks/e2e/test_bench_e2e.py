"""Tests of the end-to-end benchmark harness itself (tier-1, seconds).

They pin the parts a later performance claim leans on: the committed
``BENCHMARK.json`` and its name rules, span arithmetic, failure
accounting, the pass budget, the ``compare`` verdicts, and that a traced
pass leaves the program's classes as it found them.
"""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import e2e_pass
import e2e_spec as spec
import run as bench
from e2e_hostspeed import MARKS, REF_LOOP_S, HostSpeed
from e2e_spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_committed_manifest_matches_the_spec_and_the_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == spec.manifest()  # regenerate with `run.py manifest`
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60

    names = [
        row["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for row in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in manifest["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in manifest["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in manifest["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")

    setup = next(row for row in manifest["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in manifest["end_to_end"])
    # The command names nothing of the repo outside `paths`.
    for word in manifest["command"][1:]:
        assert any(word.startswith(path + "/") for path in manifest["paths"])
    assert (ROOT / manifest["command"][1]).is_file()


def test_every_layer_metric_names_what_it_should_move():
    metrics = {metric.name for metric in spec.END_TO_END}
    for layer in spec.PER_LAYER:
        if layer.moves.startswith("none: "):
            continue
        metric, _, workloads = layer.moves.partition(" on ")
        assert metric in metrics, layer
        assert workloads and all(
            name in spec.WORKLOADS for name in workloads.split(", ")
        ), layer


def test_smoke_config_only_shortens_the_trace():
    full = spec.workload_config("isp-window", seed=7)
    smoke = spec.workload_config("isp-window", seed=7, smoke=True)
    assert full["seed"] == smoke["seed"] == 7
    assert smoke.pop("num_transactions") * spec.SMOKE_DIVISOR == full.pop("num_transactions")
    assert smoke == full


# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------
class _Nest:
    """A synthetic layer nest driven by a fake clock (1 tick = 1 s)."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self, items):
        self.clock.advance(2)
        for _ in items:
            self.middle()
        self.clock.advance(1)

    def middle(self):
        self.clock.advance(3)
        self.leaf()
        self.leaf()

    def leaf(self):
        self.clock.advance(5)

    @classmethod
    def build(cls, clock):
        clock.advance(7)
        return cls(clock)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def test_span_self_times_sum_to_the_root_and_children_fit_in_parents():
    clock = _FakeClock()
    recorder = SpanRecorder(clock)
    originals = {name: vars(_Nest)[name] for name in ("outer", "middle", "leaf", "build")}
    recorder.wrap(_Nest, "outer", "nest.outer", lambda args, kwargs: len(args[1]))
    recorder.wrap(_Nest, "middle", "nest.middle")
    recorder.wrap(_Nest, "leaf", "nest.leaf")
    recorder.wrap(_Nest, "build", "nest.build")
    try:
        with recorder.span("root"):
            nest = _Nest.build(clock)
            nest.outer([1, 2])
            clock.advance(4)  # root's own time
    finally:
        recorder.unwrap_all()

    rows = recorder.rows
    assert (rows["nest.outer"].calls, rows["nest.outer"].units) == (1, 2)
    assert (rows["nest.middle"].calls, rows["nest.leaf"].calls) == (2, 4)
    assert rows["nest.leaf"].self_s == 20 and rows["nest.middle"].self_s == 6
    assert rows["nest.outer"].self_s == 3 and rows["nest.build"].self_s == 7
    assert rows["root"].self_s == 4
    assert sum(row.self_s for row in rows.values()) == rows["root"].total_s == 40
    assert rows["nest.leaf"].total_s <= rows["nest.middle"].total_s <= rows["nest.outer"].total_s
    assert all(0 <= row.child_s <= row.total_s for row in rows.values())
    # unwrap_all put the very same objects back, classmethod included.
    assert {name: vars(_Nest)[name] for name in originals} == originals


def test_wrap_refuses_what_is_not_a_method_of_the_class():
    class Child(_Nest):
        pass

    recorder = SpanRecorder(_FakeClock())
    for owner, attribute in ((Child, "leaf"), (_Nest, "missing")):
        try:
            recorder.wrap(owner, attribute, "x")
        except TypeError:
            continue
        raise AssertionError(f"wrapped {owner.__name__}.{attribute}")


# ----------------------------------------------------------------------
# Host-speed correction
# ----------------------------------------------------------------------
def test_host_speed_counts_work_in_reference_loops_and_restores_methods():
    clock = _FakeClock()
    loop_s = [1.0]

    def loop():
        clock.advance(loop_s[0])  # the loop's own time must not be counted
        return loop_s[0]

    speed = HostSpeed(clock, loop)
    original = vars(_Nest)["leaf"]
    speed.watch(_Nest, "leaf")
    try:
        nest = _Nest(clock)
        loop_s[0] = 2.0  # host at half speed: 10 s of leaves are 5 loops
        nest.leaf()
        nest.leaf()
        speed.mark()
        loop_s[0] = 1.0  # quiet: 5 s are 5 loops
        nest.leaf()
        speed.mark()
    finally:
        speed.unwrap_all()
    raw_s, loops = speed.take()
    # The first leaf is entered before GAP_S has passed: no mark there.
    assert (raw_s, loops) == (15.0, 10.0)  # 10 s on a host whose loop takes 1 s
    assert speed.take() == (0.0, 0.0)
    assert vars(_Nest)["leaf"] is original


# ----------------------------------------------------------------------
# One real traced pass, in this process
# ----------------------------------------------------------------------
def _wrapped_attributes(scheme_name):
    """Every class attribute ``install_wrappers`` replaces, as found now."""
    from repro.metrics.collectors import MetricsCollector
    from repro.routing.registry import make_scheme

    targets = [
        (getattr(importlib.import_module(module), owner), method)
        for module, owner, method in [tuple(wrap[:3]) for wrap in spec.WRAPS] + MARKS
    ]
    targets += [(MetricsCollector, a) for a in vars(MetricsCollector) if a.startswith("on_")]
    targets += [
        (klass, attribute)
        for klass in type(make_scheme(scheme_name)).__mro__
        for attribute in ("prepare", "attempt")
        if attribute in vars(klass)
    ]
    return [(owner, attribute, vars(owner)[attribute]) for owner, attribute in targets]


def test_traced_pass_yields_every_layer_metric_and_removes_its_wrappers():
    before = _wrapped_attributes("spider-window")
    assert len(before) > len(spec.WRAPS) + 6
    request = {
        "config": dict(
            spec.workload_config("isp-window", seed=3, smoke=True),
            topology="grid-3x3", num_transactions=150,
        ),
        "traced": True,
        "path_cache_dir": None,
    }
    traced = e2e_pass.run_pass(request)
    assert traced["ok"] and len(traced["digest"]) == 64
    assert _wrapped_attributes("spider-window") == before  # the very same objects are back

    untraced = e2e_pass.run_pass(dict(request, traced=False))
    assert untraced["digest"] == traced["digest"]  # tracing changes no outcome
    assert set(untraced["spans"]) == {
        "stage.build", "stage.prepare", "stage.run", "stage.finalize", "metrics.to_json",
    }

    assert set(untraced["stages_loops"]) == {"build_s", "prepare_s", "run_s", "finalize_s"}
    assert all(loops > 0 for loops in untraced["stages_loops"].values())

    host = {"wall_s": bench._quiet_wall(untraced), "host.slowdown": 1.0}
    values = bench.layer_values(traced, host)
    assert list(values) == [layer.name for layer in spec.PER_LAYER]
    assert values["workload.records"] == 150
    assert values["dispatch.attempt_cohort.payments"] >= 150
    assert values["transport.advance_many.units"] > 0  # the windowed scheme's layer
    assert 0.0 < values["trace.coverage"] <= 1.0
    spans = traced["spans"]
    assert all(row["self_s"] <= row["total_s"] + 1e-12 for row in spans.values())
    stage_total = sum(
        spans[f"stage.{stage}"]["total_s"] for stage in ("build", "prepare", "run", "finalize")
    )
    assert abs(sum(row["self_s"] for row in spans.values()) - stage_total) < 1e-6


# ----------------------------------------------------------------------
# Failure accounting and the pass budget (fake passes)
# ----------------------------------------------------------------------
def _ok(digest="d" * 64, run_s=8.0, slowdown=1.25):
    """A pass whose host ran ``slowdown`` times slower than the reference."""
    stages = {"build_s": 1.0, "prepare_s": 1.0, "run_s": run_s, "finalize_s": 0.0}
    return {
        "ok": True,
        "stages": dict(stages, import_s=1.0),
        "stages_loops": {k: v / (slowdown * REF_LOOP_S) for k, v in stages.items()},
        "peak_rss_mb": 100.0, "digest": digest,
        "success_ratio": 0.9, "success_volume": 0.8,
        "counters": {}, "spans": {},
    }


def _smoke_run(launch, **kwargs):
    kwargs.setdefault("repeats", 3)
    return bench.run_workload(
        kwargs.pop("name", "isp-waterfilling"), 5, traced=False, smoke=True,
        launch=launch, **kwargs,
    )


def test_a_raising_child_is_failed_operations_with_a_reason_not_a_crash():
    real = bench.launch_pass({
        "config": dict(spec.workload_config("isp-waterfilling", 5, smoke=True),
                       scheme="no-such-scheme"),
        "traced": False, "path_cache_dir": None,
    })
    assert real["ok"] is False and "no-such-scheme" in real["reason"]

    result = _smoke_run(lambda request: real)
    assert result["attempted"] == result["failed"] == result["transactions"] == 2000
    assert "timed pass 1" in result["failures"][0] and "no-such-scheme" in result["failures"][0]
    assert result["end_to_end"] == {} and bench.driver_line(result, 0) is None


def test_a_pass_whose_digest_differs_from_the_first_is_failed():
    digests = iter(["a" * 64, "a" * 64, "b" * 64])
    result = _smoke_run(lambda request: _ok(digest=next(digests)))
    assert result["attempted"] == 3 * 2000 and result["failed"] == 2000
    assert "timed pass 3: digest bbbbbbbbbbbb differs" in result["failures"][0]
    assert result["end_to_end"]["wall_s"]["n"] == 2
    line = json.loads(bench.driver_line(result, 0))
    assert line["correct"] is False and line["failed"] == 2000
    assert set(line["metrics"]) == {metric.name for metric in spec.END_TO_END}
    assert line["metrics"]["wall_s"]["unit"] == "s"
    assert abs(line["metrics"]["wall_s"]["value"] - 8.0) < 1e-9  # 10 s raw at 1.25x
    assert abs(line["metrics"]["txn_per_s"]["value"] - 2000 / 8.0) < 1e-9
    assert result["samples"]["wall_raw_s"] == [10.0, 10.0]


def test_a_failed_warm_up_aborts_the_workload_with_the_reason():
    def launch(request):
        assert request["path_cache_dir"]
        if request.get("discover_only"):
            return {"ok": False, "reason": "OSError: disk full"}
        raise AssertionError("no pass may follow a failed warm-up")

    result = _smoke_run(launch, name="ripple-full-fees-warm")
    assert result["attempted"] == result["failed"] == result["transactions"]
    assert result["failures"] == ["warm-up: OSError: disk full"]


def test_budget_launches_passes_only_while_one_more_fits():
    def passes_for(pass_s, budget_s):
        clock = _FakeClock()

        def launch(request):
            clock.advance(pass_s)
            return _ok()

        result = _smoke_run(launch, repeats=None, budget_s=budget_s, clock=clock)
        return result["end_to_end"]["wall_s"]["n"]

    assert passes_for(12, 30) == 2  # 24 s spent, a third would end at 36
    assert passes_for(15, 30) == 2
    assert passes_for(16, 30) == 1  # a second would end at 32
    assert passes_for(50, 30) == 1  # always at least one
    assert passes_for(9, 30) == 3


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_verdicts_follow_the_bound_the_spread_and_the_all_better_rule():
    wall = next(metric for metric in spec.END_TO_END if metric.name == "wall_s")
    rate = next(metric for metric in spec.END_TO_END if metric.name == "txn_per_s")
    base = [10.0, 10.1, 10.2, 10.3, 10.4]
    assert bench.verdict(wall, base, [v * 1.05 for v in base]) == "within"
    assert bench.verdict(wall, base, [v * 1.30 for v in base]) == "worse"
    assert bench.verdict(rate, base, [v * 1.30 for v in base]) == "within"  # higher is better
    assert bench.verdict(rate, base, [v * 0.70 for v in base]) == "worse"
    noisy = [7.0, 9.0, 10.0, 13.0, 16.0]
    assert bench.verdict(wall, base, noisy) == "unresolved"
    assert bench.verdict(wall, noisy, [6.0, 6.5, 6.9]) == "within"  # every pass better


def test_compare_counts_worse_rows_and_reports_count_changes(capsys):
    def side(wall, discovered):
        layers = {layer.name: 0 for layer in spec.PER_LAYER}
        layers["pathservice.discover.pairs"] = discovered
        samples = {metric.name: [1.0, 1.0] for metric in spec.END_TO_END}
        samples["wall_s"] = wall
        return {
            "envelope": {"commit": "c", "seed": 23},
            "workloads": {"isp-window": {"samples": samples, "digest": "d", "per_layer": layers}},
        }

    assert bench.compare(side([10.0, 10.2], 5), side([10.1, 10.3], 5)) == 0
    assert "count " not in capsys.readouterr().out
    assert bench.compare(side([10.0, 10.2], 5), side([14.0, 14.2], 9)) == 1
    out = capsys.readouterr().out
    assert "worse (bound 0.2 of A)" in out
    assert "count pathservice.discover.pairs: 5 -> 9" in out
