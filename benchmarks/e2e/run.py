"""The end-to-end benchmark: four long workloads, per-layer attribution.

::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--repeats R]
                                 [--smoke] [--out FILE]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py compare A.json B.json
    python benchmarks/e2e/run.py manifest

The first form is for people: every workload, ``R`` timed passes and one
traced pass each, all metrics printed by name with unit, results written
to ``--out``.  The second is the form ``BENCHMARK.json`` names: one
workload, and the last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  README.md in this directory has the details.

This process only launches passes, one child at a time, and does the
arithmetic; the program under test is imported by the children
(``e2e_pass.py``) alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import e2e_spec as spec
from e2e_hostspeed import REF_LOOP_S

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
#: Scratch space (path artifacts of the warm workload); removed on exit.
WORK_ROOT = ROOT / ".bench_e2e_work"
#: A pass slower than this is killed and counted as failed.
PASS_TIMEOUT_S = 120
DEFAULT_SEED = 23
DEFAULT_REPEATS = 5
SMOKE_REPEATS = 2

Launch = Callable[[Dict[str, Any]], Dict[str, Any]]


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def launch_pass(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one pass in a child process and return its result object.

    Never raises for a failing pass: a child that times out, dies or
    prints no result comes back as ``{"ok": False, "reason": ...}``.
    """
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [sys.executable, str(HERE / "e2e_pass.py"), json.dumps(request)]
    try:
        child = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"timeout: pass exceeded {PASS_TIMEOUT_S} s"}
    try:
        return json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        tail = child.stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "ok": False,
            "reason": f"child exited {child.returncode} without a result: {tail[0]}",
        }


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's passes."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _wall(stages: Dict[str, float]) -> float:
    return sum(stages[f"{stage}_s"] for stage in ("build", "prepare", "run", "finalize"))


def _quiet_wall(outcome: Dict[str, Any]) -> float:
    """A pass's wall seconds on the reference host (``e2e_hostspeed``)."""
    return _wall(outcome["stages_loops"]) * REF_LOOP_S


def layer_values(traced: Dict[str, Any], host: Dict[str, float]) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced pass's result.

    ``host`` carries what only the untraced passes know: their median
    ``wall_s`` (the base of ``trace.overhead_ratio``) and ``host.slowdown``.
    """
    spans: Dict[str, Dict[str, float]] = traced["spans"]
    flat: Dict[str, float] = {f"stage.{k}": v for k, v in traced["stages"].items()}
    flat.update(traced["counters"])
    flat.update(host)
    empty = {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0}
    for span, label in spec.SPAN_UNITS.items():
        row = spans.get(span, empty)
        flat[f"{span}.calls"] = row["calls"]
        flat[f"{span}.self_s"] = row["self_s"]
        if label:
            flat[f"{span}.{label}"] = row["units"]
    discovered = flat["pathservice.discover.calls"]
    requested = flat["pathservice.request.pairs"] + flat["pathservice.lookup.calls"]
    flat["pathservice.discover.pairs"] = discovered
    flat["pathservice.hit_ratio"] = 1.0 - _ratio(discovered, requested)
    cohort_payments = flat["dispatch.cohort_payments"]
    flat["dispatch.fallback_ratio"] = _ratio(flat["dispatch.scalar_fallbacks"], cohort_payments)
    flat["dispatch.attempts_per_txn"] = _ratio(cohort_payments, flat["workload.records"])
    flat["events.us_per_event"] = 1e6 * _ratio(
        spans["events.run"]["total_s"], flat["events.processed"]
    )
    flat["trace.overhead_ratio"] = _ratio(_quiet_wall(traced), host["wall_s"])
    staged = [spans["stage.prepare"], spans["stage.run"]]
    flat["trace.coverage"] = 1.0 - _ratio(
        sum(row["self_s"] for row in staged), sum(row["total_s"] for row in staged)
    )
    return {layer.name: flat[layer.name] for layer in spec.PER_LAYER}


def run_workload(
    name: str,
    seed: int,
    *,
    repeats: Optional[int],
    budget_s: float = spec.RUN_SECONDS,
    traced: bool = True,
    smoke: bool = False,
    launch: Launch = launch_pass,
    clock: Callable[[], float] = time.perf_counter,
) -> Dict[str, Any]:
    """Run one workload's passes and return its result.

    ``repeats`` timed passes are launched, or, when it is ``None``, as
    many as fit ``budget_s`` seconds from the start of this call (always
    at least one; a further pass is launched only while the time spent
    plus one more pass of the last one's length stays inside the
    budget).  A failing pass never raises: its transactions are counted
    in ``failed`` and the reason is kept in ``failures``.

    Timings are host-speed corrected (``e2e_hostspeed``): each stage's
    reference-loop count times ``REF_LOOP_S``.  The raw walls are kept
    beside them as ``*_raw_s``.
    """
    started = clock()
    config = spec.workload_config(name, seed, smoke)
    transactions = int(config["num_transactions"])
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "transactions": transactions,
        "attempted": 0, "failed": 0, "failures": [], "digest": None,
        "samples": {}, "end_to_end": {}, "per_layer": None,
    }
    failures: List[str] = result["failures"]
    samples: Dict[str, List[float]] = result["samples"]
    request = {"config": config, "traced": False, "path_cache_dir": None}
    work_dir = WORK_ROOT / str(os.getpid())

    def one_pass(kind: str, traced_pass: bool) -> Optional[Dict[str, Any]]:
        result["attempted"] += transactions
        outcome = launch(dict(request, traced=traced_pass))
        if outcome.get("ok") and result["digest"] not in (None, outcome["digest"]):
            outcome = {
                "ok": False,
                "reason": f"digest {outcome['digest'][:12]} differs from the first "
                          f"pass's {result['digest'][:12]}",
            }
        if not outcome.get("ok"):
            result["failed"] += transactions
            failures.append(f"{kind}: {outcome.get('reason', 'no reason given')}")
            return None
        result["digest"] = outcome["digest"]
        return outcome

    try:
        if spec.WORKLOADS[name].warm_paths:
            request["path_cache_dir"] = str(work_dir)
            warm = launch(dict(request, discover_only=True))
            if not warm.get("ok"):
                result["attempted"] = result["failed"] = transactions
                failures.append(f"warm-up: {warm.get('reason', 'no reason given')}")
                return result
        timed: List[Dict[str, Any]] = []
        while True:
            pass_started = clock()
            outcome = one_pass(f"timed pass {len(timed) + 1}", traced_pass=False)
            if outcome is None:
                break  # deterministic program: the next pass would fail alike
            timed.append(outcome)
            now = clock()
            if repeats is not None:
                if len(timed) >= repeats:
                    break
            elif (now - started) + (now - pass_started) > budget_s:
                break
        for outcome in timed:
            stages, loops = outcome["stages"], outcome["stages_loops"]
            wall_s, wall_raw_s = _quiet_wall(outcome), _wall(stages)
            row = {
                "wall_s": wall_s,
                "txn_per_s": transactions / wall_s,
                "setup_s": (loops["build_s"] + loops["prepare_s"]) * REF_LOOP_S,
                "peak_rss_mb": outcome["peak_rss_mb"],
                "success_ratio": outcome["success_ratio"],
                "success_volume": outcome["success_volume"],
                "wall_raw_s": wall_raw_s,
                "setup_raw_s": stages["build_s"] + stages["prepare_s"],
                "host.slowdown": wall_raw_s / wall_s,
                **{f"stage.{key}": value for key, value in stages.items()},
            }
            for key, value in row.items():
                samples.setdefault(key, []).append(value)
        for metric in spec.END_TO_END:
            if metric.name in samples:
                result["end_to_end"][metric.name] = dict(
                    summarize(samples[metric.name]), unit=metric.unit
                )
        if traced and timed:
            outcome = one_pass("traced pass", traced_pass=True)
            if outcome is not None:
                result["per_layer"] = layer_values(outcome, {
                    "wall_s": statistics.median(samples["wall_s"]),
                    "host.slowdown": statistics.median(samples["host.slowdown"]),
                })
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_workload(result: Dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit."""
    timed = len(result["samples"].get("wall_s", []))
    print(
        f"\n== {result['workload']}  seed {result['seed']}  "
        f"{result['transactions']} txns  {timed} timed pass(es)"
        f"{'  + 1 traced' if result['per_layer'] else ''} =="
    )
    print(f"{'end-to-end':<18}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  {'unit':<9}bound")
    for metric in spec.END_TO_END:
        row = result["end_to_end"].get(metric.name)
        if row:
            print(
                f"{metric.name:<18}{row['median']:>14.6g}{row['q1']:>14.6g}"
                f"{row['q3']:>14.6g}{row['n']:>4}  {metric.unit:<9}{metric.bound:g}"
            )
    raw_rows = ["wall_raw_s", "setup_raw_s", "host.slowdown"] + [
        f"stage.{stage}_s" for stage in ("import", "build", "prepare", "run", "finalize")
    ]
    for key in raw_rows:
        values = result["samples"].get(key)
        if values:
            print(f"{key:<18}{statistics.median(values):>14.6g}{'':>32}  "
                  f"{'ratio' if key == 'host.slowdown' else 's':<9}(uncorrected)")
    if result["per_layer"]:
        print(f"{'per-layer (traced pass)':<38}{'value':>14}  {'unit':<9}should move")
        for layer in spec.PER_LAYER:
            print(f"{layer.name:<38}{result['per_layer'][layer.name]:>14.6g}  "
                  f"{layer.unit:<9}{layer.moves}")
    print(
        f"operations: attempted={result['attempted']} failed={result['failed']} "
        f"metrics-digest={result['digest']}"
    )
    for reason in result["failures"]:
        print(f"  FAILED {reason}")


def driver_line(result: Dict[str, Any], trace: int) -> Optional[str]:
    """The one-object last line of a ``--trace`` run (``None`` if a
    metric could not be measured)."""
    if trace:
        if result["per_layer"] is None:
            return None
        metrics = {
            layer.name: {"value": result["per_layer"][layer.name], "unit": layer.unit}
            for layer in spec.PER_LAYER
        }
    else:
        if len(result["end_to_end"]) < len(spec.END_TO_END):
            return None
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in result["end_to_end"].items()
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def envelope(seed: int, repeats: Optional[int], smoke: bool) -> Dict[str, Any]:
    """Where and how a result set was measured."""
    return {
        "commit": _git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "seed": seed,
        "repeats": repeats,
        "smoke": smoke,
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(metric: spec.EndToEnd, base: Sequence[float], other: Sequence[float]) -> str:
    """``within`` / ``worse`` / ``unresolved`` for one (metric, workload).

    choosing-metrics 6.5: the other side's median may be worse than the
    base's by at most the bound; where either side's own quartile spread
    is wider than the bound the row is unresolved, unless every pass of
    the other side reads better than every pass of the base.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    if max(sign * v for v in other) < min(sign * v for v in base):
        return "within"
    base_row, other_row = summarize(base), summarize(other)
    spread = max(
        _ratio(row["q3"] - row["q1"], abs(row["median"])) for row in (base_row, other_row)
    )
    if spread > metric.bound:
        return "unresolved"
    worsening = sign * _ratio(other_row["median"] - base_row["median"], abs(base_row["median"]))
    return "worse" if worsening > metric.bound else "within"


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> int:
    """Print one row per (metric, workload); return the number of ``worse``."""
    worse = 0
    print(f"base  A: commit {base['envelope']['commit']}  seed {base['envelope']['seed']}")
    print(f"other B: commit {other['envelope']['commit']}  seed {other['envelope']['seed']}")
    print(f"{'workload':<24}{'metric':<16}{'A median [q1, q3]':>36}"
          f"{'B median [q1, q3]':>36}{'B/A':>9}  verdict")
    for name in spec.WORKLOADS:
        a, b = base["workloads"].get(name), other["workloads"].get(name)
        if not a or not b:
            continue
        for metric in spec.END_TO_END:
            a_values = a["samples"].get(metric.name)
            b_values = b["samples"].get(metric.name)
            if not a_values or not b_values:
                print(f"{name:<24}{metric.name:<16}  not measured on both sides")
                continue
            rows = [summarize(a_values), summarize(b_values)]
            cells = [
                f"{row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}] n={row['n']}"
                for row in rows
            ]
            outcome = verdict(metric, a_values, b_values)
            worse += outcome == "worse"
            print(
                f"{name:<24}{metric.name:<16}{cells[0]:>36}{cells[1]:>36}"
                f"{_ratio(rows[1]['median'], rows[0]['median']):>9.4f}  "
                f"{outcome} (bound {metric.bound:g} of A)"
            )
        if a["digest"] != b["digest"] and base["envelope"]["seed"] == other["envelope"]["seed"]:
            print(f"{name:<24}simulated metrics differ: digest {a['digest'][:12]} -> "
                  f"{b['digest'][:12]}")
        if a["per_layer"] and b["per_layer"]:
            for layer in spec.PER_LAYER:
                if layer.unit != "count":
                    continue
                if a["per_layer"][layer.name] != b["per_layer"][layer.name]:
                    print(f"{name:<24}count {layer.name}: {a['per_layer'][layer.name]} -> "
                          f"{b['per_layer'][layer.name]}")
    print(f"{worse} row(s) worse")
    return worse


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="becomes ExperimentConfig.seed (default %(default)s)")
    parser.add_argument("--repeats", type=int,
                        help=f"timed passes per workload (default {DEFAULT_REPEATS}; "
                             f"{SMOKE_REPEATS} with --smoke)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="time budget of a --trace 0 run: timed passes are "
                             "launched while one more fits, at least one "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="machine mode for one workload: the last line is a JSON "
                             "object of end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{spec.SMOKE_DIVISOR} trace length, correctness checks only")
    parser.add_argument("--out", help="write the result set (envelope, raw samples) here")
    return parser


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        sides = [json.loads(Path(path).read_text(encoding="utf-8")) for path in argv[1:]]
        return 1 if compare(*sides) else 0
    if argv and argv[0] == "manifest":
        target = ROOT / "BENCHMARK.json"
        target.write_text(json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {target}")
        return 0

    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is not at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        print("error: --trace needs --workload", file=sys.stderr)
        return 2

    repeats = args.repeats
    if repeats is None:
        if args.trace == 1:
            repeats = 1  # one untraced pass, the base of trace.overhead_ratio
        elif args.trace == 0:
            repeats = None  # as many as --seconds allows
        else:
            repeats = SMOKE_REPEATS if args.smoke else DEFAULT_REPEATS
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, repeats=repeats, budget_s=args.seconds,
            traced=args.trace != 0, smoke=args.smoke,
        )
        print_workload(results[name])
    report = {"envelope": envelope(args.seed, repeats, args.smoke), "workloads": results}
    print("\n" + "  ".join(f"{key}={value}" for key, value in report["envelope"].items()))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.trace is not None:
        line = driver_line(results[args.workload], args.trace)
        if line is None:
            return 1
        print(line)
        return 0
    return 1 if any(result["failed"] for result in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
