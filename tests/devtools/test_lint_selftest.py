"""Selftest for :mod:`repro.devtools.lint` — the invariant linter.

Per rule: one fixture snippet that MUST fire (true positive) and one
near-miss that MUST NOT (false-positive guard), so rule regressions in
either direction are caught.  On top of the fixtures, the suite runs the
linter over the real ``src/ + tests/`` tree and asserts the shipped
state: zero unsuppressed findings, sub-5s wall time, and stable text/JSON
output shapes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.devtools.lint import LintIndex, run_lint, run_over_index
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.cache import CACHE_FILENAME, ParseCache
from repro.devtools.lint.report import render_github, render_json, render_text
from repro.devtools.lint.runner import PARSE_ERROR_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Fixture paths live where the rules' scope predicates expect them.
ENGINE = "src/repro/engine/fixture_mod.py"
ROUTING = "src/repro/routing/fixture_mod.py"
TESTS = "tests/engine/test_fixture_mod.py"


def lint_sources(sources, select=None):
    """Lint in-memory ``{path: source}`` snippets; returns the report."""
    index = LintIndex.from_sources(sources)
    return run_over_index(index, select=select)


def rule_hits(report, rule_id):
    return [finding for finding in report.findings if finding.rule_id == rule_id]


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------
class TestRL001Determinism:
    def test_true_positive_wall_clock_and_unseeded_rng(self):
        report = lint_sources(
            {
                ENGINE: (
                    "import time\n"
                    "import numpy as np\n"
                    "def stamp():\n"
                    "    started = time.time()\n"
                    "    rng = np.random.default_rng()\n"
                    "    return started, rng\n"
                )
            },
            select=["RL001"],
        )
        hits = rule_hits(report, "RL001")
        assert len(hits) == 2
        assert hits[0].line == 4 and "time.time" in hits[0].message
        assert hits[1].line == 5 and "seed" in hits[1].message
        # Findings carry the precise file:line rule-id message shape.
        assert hits[0].format_text().startswith(f"{ENGINE}:4:")

    def test_near_miss_seeded_rng_benchmark_timing_and_lookalikes(self):
        report = lint_sources(
            {
                # Seeded RNG in scope + lookalike attribute chains: clean.
                ENGINE: (
                    "import numpy as np\n"
                    "def draw(seed, clock):\n"
                    "    rng = np.random.default_rng(seed)\n"
                    "    now = clock.time()\n"  # not the time module
                    "    return rng.random() + now\n"  # bound generator, fine
                ),
                # Wall clock outside the simulation layers: out of scope.
                "benchmarks/fixture_bench.py": (
                    "import time\n"
                    "def measure():\n"
                    "    return time.perf_counter()\n"
                ),
            },
            select=["RL001"],
        )
        assert report.findings == []


    @pytest.mark.parametrize(
        "imports,call,resolved",
        [
            ("from time import perf_counter", "perf_counter()", "time.perf_counter"),
            ("import time as clock", "clock.monotonic_ns()", "time.monotonic_ns"),
            ("import datetime", "datetime.datetime.now()", "datetime.datetime.now"),
            ("from datetime import date", "date.today()", "datetime.date.today"),
            ("import random", "random.shuffle(items)", "random.shuffle"),
            ("from random import choice", "choice(items)", "random.choice"),
            ("import numpy as np", "np.random.seed(1)", "numpy.random.seed"),
            ("from numpy import random as npr", "npr.permutation(items)",
             "numpy.random.permutation"),
            ("import random", "random.Random()", "random.Random"),
            ("import numpy as np", "np.random.RandomState()",
             "numpy.random.RandomState"),
        ],
    )
    def test_every_import_spelling_resolves_to_the_banned_call(
        self, imports, call, resolved
    ):
        report = lint_sources(
            {ENGINE: f"{imports}\ndef draw(items):\n    return {call}\n"},
            select=["RL001"],
        )
        hits = rule_hits(report, "RL001")
        assert [hit.line for hit in hits] == [3]
        assert resolved in hits[0].message

    @pytest.mark.parametrize(
        "path,flagged",
        [
            ("src/repro/engine/fixture_mod.py", True),
            ("src/repro/routing/fixture_mod.py", True),
            ("src/repro/core/fixture_mod.py", True),
            ("src/repro/workload/fixture_mod.py", True),
            ("src/repro/topology/fixture_mod.py", True),
            ("src/repro/simulator/fixture_mod.py", True),
            ("src/repro/network/fixture_mod.py", True),
            ("src/repro/fluid/fixture_mod.py", True),
            ("src/repro/metrics/fixture_mod.py", True),
            ("src/repro/experiments/fixture_mod.py", True),
            ("src/repro/cli.py", False),
            ("src/repro/devtools/fixture_mod.py", False),
            (TESTS, False),
        ],
    )
    def test_scope_is_the_simulation_layers(self, path, flagged):
        report = lint_sources(
            {path: "import random\ndef draw():\n    return random.random()\n"},
            select=["RL001"],
        )
        assert bool(rule_hits(report, "RL001")) is flagged

    def test_true_positive_in_a_workload_generator(self):
        # The generators draw every run's randomness: a seedless generator
        # or a global-RNG draw there breaks replay like one in the engine.
        report = lint_sources(
            {
                "src/repro/workload/fixture_gen.py": (
                    "import random\n"
                    "import numpy as np\n"
                    "def trace(count):\n"
                    "    rng = np.random.default_rng()\n"
                    "    gaps = rng.exponential(1.0, size=count)\n"
                    "    return gaps, random.choice(range(count))\n"
                )
            },
            select=["RL001"],
        )
        hits = rule_hits(report, "RL001")
        assert [(hit.line, hit.path) for hit in hits] == [
            (4, "src/repro/workload/fixture_gen.py"),
            (6, "src/repro/workload/fixture_gen.py"),
        ]
        assert "seed" in hits[0].message and "random.choice" in hits[1].message

    def test_true_positive_in_an_experiment_module(self):
        # Experiments derive every cell's config and seed: a wall-clock
        # seed there gives each sweep different traces.
        path = "src/repro/experiments/fixture_sweep.py"
        report = lint_sources(
            {
                path: (
                    "import time\n"
                    "def cell_config(base, value):\n"
                    "    return base.with_overrides(capacity=value,\n"
                    "                               seed=int(time.time()))\n"
                )
            },
            select=["RL001"],
        )
        hits = rule_hits(report, "RL001")
        assert [(hit.line, hit.path) for hit in hits] == [(4, path)]
        assert "time.time" in hits[0].message

    def test_seeded_constructors_by_position_or_keyword_are_clean(self):
        report = lint_sources(
            {
                ENGINE: (
                    "import random\n"
                    "import numpy as np\n"
                    "def make(seed):\n"
                    "    return (random.Random(seed),\n"
                    "            np.random.default_rng(seed=seed),\n"
                    "            np.random.RandomState(seed))\n"
                )
            },
            select=["RL001"],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# RL002 — ordered iteration in scheduling/cohort modules
# ---------------------------------------------------------------------------
class TestRL002OrderedIteration:
    def test_true_positive_dict_values_in_scheduling_module(self):
        report = lint_sources(
            {
                ENGINE: (
                    "def drain(engine, queues, cb):\n"
                    "    engine.schedule_at_tick(0, cb)\n"  # scheduling scope
                    "    for queue in queues.values():\n"
                    "        queue.clear()\n"
                    "    return {unit for queue in {1, 2} for unit in (queue,)}\n"
                )
            },
            select=["RL002"],
        )
        hits = rule_hits(report, "RL002")
        assert [hit.line for hit in hits] == [3, 5]
        assert "values()" in hits[0].message
        assert "set literal" in hits[1].message

    def test_near_miss_sorted_iteration_and_out_of_scope_module(self):
        report = lint_sources(
            {
                # Same iteration, wrapped in sorted(): clean.
                ENGINE: (
                    "def drain(engine, queues, cb):\n"
                    "    engine.schedule_at_tick(0, cb)\n"
                    "    for queue in sorted(queues.values()):\n"
                    "        queue.clear()\n"
                ),
                # Bare .values() in a module that never schedules: out of
                # scope for RL002 (iteration order can't become event order).
                ROUTING: (
                    "def tally(counters):\n"
                    "    return sum(counters.values())\n"
                    "def walk(counters):\n"
                    "    for count in counters.values():\n"
                    "        yield count\n"
                ),
            },
            select=["RL002"],
        )
        assert report.findings == []


    @pytest.mark.parametrize(
        "loop,fragment",
        [
            ("for key in table.keys():\n        pass", "keys()"),
            ("for item in set(items):\n        pass", "set(...)"),
            ("for item in frozenset(items):\n        pass", "frozenset(...)"),
            ("return {k: 1 for k in table.keys()}", "keys()"),
            ("return list(x for x in table.values())", "values()"),
        ],
    )
    def test_unordered_sources_in_loops_and_comprehensions(self, loop, fragment):
        report = lint_sources(
            {
                ENGINE: (
                    "def drain(engine, table, items, cb):\n"
                    "    engine.schedule_after(1.0, cb)\n"
                    f"    {loop}\n"
                )
            },
            select=["RL002"],
        )
        hits = rule_hits(report, "RL002")
        assert [hit.line for hit in hits] == [3]
        assert fragment in hits[0].message

    def test_a_cohort_builder_puts_the_module_in_scope(self):
        report = lint_sources(
            {
                ROUTING: (
                    "def build_cohort(pending):\n"
                    "    return [unit for unit in pending.values()]\n"
                )
            },
            select=["RL002"],
        )
        assert [hit.line for hit in rule_hits(report, "RL002")] == [2]


# ---------------------------------------------------------------------------
# RL003 — store-mutation discipline
# ---------------------------------------------------------------------------
class TestRL003StoreDiscipline:
    def test_true_positive_unbumped_array_write(self):
        report = lint_sources(
            {
                ROUTING: (
                    "import numpy as np\n"
                    "def leak(store, cid, side, amount):\n"
                    "    store.balance[cid, side] -= amount\n"
                    "    np.add.at(store.inflight, (cid, side), amount)\n"
                )
            },
            select=["RL003"],
        )
        hits = rule_hits(report, "RL003")
        assert [hit.line for hit in hits] == [3, 4]
        assert ".balance[...]" in hits[0].message
        assert ".inflight[...]" in hits[1].message

    def test_near_miss_bumped_write_exempt_module_and_lookalike(self):
        report = lint_sources(
            {
                # Same write paired with touch(): the documented discipline.
                ROUTING: (
                    "def lock(store, cid, side, amount):\n"
                    "    store.balance[cid, side] -= amount\n"
                    "    store.inflight[cid, side] += amount\n"
                    "    store.touch(cid)\n"
                ),
                # store.py owns version maintenance: exempt wholesale.
                "src/repro/engine/store.py": (
                    "def apply(store, cid, side, amount):\n"
                    "    store.balance[cid, side] -= amount\n"
                ),
                # A non-store attribute of the same *shape* is not flagged.
                "src/repro/metrics/fixture_mod.py": (
                    "def note(table, cid):\n"
                    "    table.rows[cid] = 1\n"
                ),
            },
            select=["RL003"],
        )
        assert report.findings == []

    def test_direct_version_bump_counts_as_bump(self):
        report = lint_sources(
            {
                ROUTING: (
                    "def lock(store, cid, side, amount):\n"
                    "    store.balance[cid, side] -= amount\n"
                    "    store.version = store.version + 1\n"
                )
            },
            select=["RL003"],
        )
        assert report.findings == []
        # A per-channel stamp write is no bump: the store keeps no stamps.
        report = lint_sources(
            {
                ROUTING: (
                    "def lock(store, cid, side, amount):\n"
                    "    store.balance[cid, side] -= amount\n"
                    "    store.stamp[cid] = 1\n"
                )
            },
            select=["RL003"],
        )
        assert [hit.line for hit in rule_hits(report, "RL003")] == [2]

    def test_flat_view_writes_are_store_writes(self):
        report = lint_sources(
            {
                # Direction-indexed views alias the (n, 2) arrays: an
                # unbumped write through one is the same stale-probe bug.
                ROUTING: (
                    "import numpy as np\n"
                    "def leak(store, dirs, amounts):\n"
                    "    store.balance_flat[dirs] -= amounts\n"
                    "    np.add.at(store.inflight_flat, dirs, amounts)\n"
                ),
                # Near miss: the same writes with a version bump in the
                # same function.
                "src/repro/core/fixture_mod.py": (
                    "def lock(store, dirs, amounts):\n"
                    "    store.balance_flat[dirs] -= amounts\n"
                    "    store.sent_flat[dirs] += amounts\n"
                    "    store.version += 1\n"
                ),
            },
            select=["RL003"],
        )
        hits = rule_hits(report, "RL003")
        assert [(hit.path, hit.line) for hit in hits] == [(ROUTING, 3), (ROUTING, 4)]
        assert ".balance_flat[...]" in hits[0].message
        assert ".inflight_flat[...]" in hits[1].message


# ---------------------------------------------------------------------------
# RL005 — integer-tick discipline
# ---------------------------------------------------------------------------
class TestRL005IntegerTicks:
    def test_true_positive_float_literal_and_division(self):
        report = lint_sources(
            {
                ENGINE: (
                    "def arm(engine, cb, horizon):\n"
                    "    engine.schedule_at_tick(1.5, cb)\n"
                    "    engine.schedule(horizon / 2, cb)\n"
                )
            },
            select=["RL005"],
        )
        hits = rule_hits(report, "RL005")
        assert [hit.line for hit in hits] == [2, 3]
        assert "float literal" in hits[0].message
        assert "true division" in hits[1].message

    def test_near_miss_to_ticks_conversion_and_seconds_apis(self):
        report = lint_sources(
            {
                ENGINE: (
                    "def arm(engine, clock, cb, horizon):\n"
                    # Floats inside the sanctioned conversion are fine,
                    # even a float literal: to_ticks owns the rounding.
                    "    engine.schedule_at_tick(clock.to_ticks(1.5), cb)\n"
                    # Seconds-domain APIs are out of scope.
                    "    engine.schedule_after(horizon / 2, cb)\n"
                    "    engine.every(0.1, cb)\n"
                    # Floor division stays integral.
                    "    engine.schedule(horizon // 2, cb)\n"
                )
            },
            select=["RL005"],
        )
        assert report.findings == []


    @pytest.mark.parametrize(
        "call",
        [
            "engine.schedule(tick=now + 0.5, callback=cb)",
            "engine.schedule_many(ticks=[t / 2 for t in ts], callbacks=cbs)",
            "engine.schedule_at_tick(int(now) + horizon / 4, cb)",
        ],
    )
    def test_hazard_in_keyword_list_or_nested_tick_argument(self, call):
        report = lint_sources(
            {ENGINE: f"def arm(engine, now, horizon, ts, cb, cbs):\n    {call}\n"},
            select=["RL005"],
        )
        assert [hit.line for hit in rule_hits(report, "RL005")] == [2]

    def test_float_outside_the_tick_argument_is_clean(self):
        report = lint_sources(
            {
                ENGINE: (
                    "def arm(engine, now, cb):\n"
                    "    engine.schedule(now + 1, cb, 0.5)\n"
                    "    engine.schedule_many([now], [cb], [(1.5,)])\n"
                )
            },
            select=["RL005"],
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# RL010 — np.load never unpickles
# ---------------------------------------------------------------------------
class TestRL010NoPickleLoad:
    def test_true_positive_default_variable_true_and_splat(self):
        report = lint_sources(
            {
                ENGINE: (
                    "import numpy as np\n"
                    "from numpy import load\n"
                    "def read(path, flag, options):\n"
                    "    a = np.load(path)\n"
                    "    b = np.load(path, allow_pickle=flag)\n"
                    "    c = np.load(path, allow_pickle=True)\n"
                    "    d = load(path, **options)\n"
                    "    e = np.load(path, None, False)\n"
                    "    return a, b, c, d, e\n"
                )
            },
            select=["RL010"],
        )
        hits = rule_hits(report, "RL010")
        assert [hit.line for hit in hits] == [4, 5, 6, 7, 8]
        assert "allow_pickle=False" in hits[0].message

    def test_near_miss_literal_false_other_loads_and_tests(self):
        report = lint_sources(
            {
                ENGINE: (
                    "import json\n"
                    "import numpy as np\n"
                    "def read(path, handle, store):\n"
                    "    with np.load(path, allow_pickle=False) as archive:\n"
                    "        columns = dict(archive)\n"
                    "    return columns, json.load(handle), store.load(path)\n"
                ),
                # Tests may load whatever they wrote: out of scope.
                TESTS: "import numpy as np\nARRAYS = np.load('fixture.npz')\n",
            },
            select=["RL010"],
        )
        assert rule_hits(report, "RL010") == []


# ---------------------------------------------------------------------------
# Suppressions, parse failures, output formats, CLI
# ---------------------------------------------------------------------------
class TestSuppressionsAndReporting:
    def test_suppression_silences_only_the_listed_rule(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    # repro-lint: allow[RL003] wrong rule id on purpose\n"
            "    return time.time()\n"
        )
        report = lint_sources({ENGINE: source}, select=["RL001"])
        assert len(rule_hits(report, "RL001")) == 1  # RL003 allow is inert

        fixed = source.replace("allow[RL003]", "allow[RL001]")
        report = lint_sources({ENGINE: fixed}, select=["RL001"])
        assert report.findings == []
        assert len(report.suppressed) == 1  # still counted, not lost

    def test_trailing_comment_suppression_and_comma_list(self):
        report = lint_sources(
            {
                ENGINE: (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()  "
                    "# repro-lint: allow[RL001,RL005] fixture justification\n"
                )
            },
            select=["RL001"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_suppression_marker_inside_string_is_inert(self):
        report = lint_sources(
            {
                ENGINE: (
                    "import time\n"
                    "MSG = 'repro-lint: allow[RL001] not a comment'\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
            select=["RL001"],
        )
        assert len(report.findings) == 1  # the string literal suppresses nothing

    def test_unparseable_file_is_a_finding_not_a_skip(self):
        report = lint_sources({ENGINE: "def broken(:\n"})
        assert len(report.findings) == 1
        assert report.findings[0].rule_id == PARSE_ERROR_RULE

    def test_json_output_shape(self):
        report = lint_sources(
            {ENGINE: "import time\ndef f():\n    return time.time()\n"},
            select=["RL001"],
        )
        document = json.loads(render_json(report))
        assert document["version"] == 1
        assert document["counts"] == {"RL001": 1}
        (finding,) = document["findings"]
        assert finding["path"] == ENGINE
        assert finding["rule"] == "RL001"
        assert finding["line"] == 3
        assert "message" in finding

    def test_text_output_is_file_line_col_rule_message(self):
        report = lint_sources(
            {ENGINE: "import time\ndef f():\n    return time.time()\n"},
            select=["RL001"],
        )
        first_line = render_text(report).splitlines()[0]
        assert first_line.startswith(f"{ENGINE}:3:")
        assert " RL001 " in first_line

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        capsys.readouterr()
        assert lint_main(["--select", "RL999", str(clean)]) == 2
        err = capsys.readouterr().err
        assert "RL999" in err
        assert lint_main([str(tmp_path / "missing_dir")]) == 1  # RL000 finding

    def test_github_output_is_error_annotations(self):
        report = lint_sources(
            {ENGINE: "import time\ndef f():\n    return time.time()\n"},
            select=["RL001"],
        )
        lines = render_github(report).splitlines()
        assert lines[0].startswith(f"::error file={ENGINE},line=3,")
        assert "title=RL001::" in lines[0]
        assert lines[-1].startswith("repro-lint:")  # trailing summary line

    def test_github_output_escapes_message_payload(self):
        from repro.devtools.lint.report import Finding, LintReport

        report = LintReport(
            findings=(
                Finding(
                    path="src/a.py",
                    line=1,
                    col=0,
                    rule_id="RL001",
                    message="bad\nnews: 100% wrong",
                ),
            ),
            suppressed=(),
            files_scanned=1,
        )
        (annotation, _summary) = render_github(report).splitlines()
        assert "%0A" in annotation  # newline escaped so the annotation survives
        assert "%25" in annotation  # literal percent escaped
        assert "\n" not in annotation


# ---------------------------------------------------------------------------
# The on-disk parse cache
# ---------------------------------------------------------------------------
class TestParseCache:
    def _write_tree(self, tmp_path):
        root = tmp_path / "src" / "repro" / "engine"
        root.mkdir(parents=True)
        (root / "clocky.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        return root

    def test_warm_run_reuses_parses_and_matches_cold_findings(self, tmp_path):
        self._write_tree(tmp_path)
        cold = run_lint([str(tmp_path / "src")], base=str(tmp_path))
        cache_file = tmp_path / CACHE_FILENAME
        assert cache_file.is_file()
        warm = run_lint([str(tmp_path / "src")], base=str(tmp_path))
        assert warm.findings == cold.findings
        # The second run really was served from the cache.
        cache = ParseCache.for_base(str(tmp_path))
        path = tmp_path / "src" / "repro" / "engine" / "clocky.py"
        assert cache.get(path.resolve(), path.stat()) is not None

    def test_cache_invalidates_on_file_change(self, tmp_path):
        root = self._write_tree(tmp_path)
        first = run_lint([str(tmp_path / "src")], base=str(tmp_path))
        assert len(first.findings) == 1
        target = root / "clocky.py"
        stale_stat = target.stat()
        target.write_text("def f():\n    return 0\n")
        # Force a different mtime even on coarse-grained filesystems.
        import os

        os.utime(target, ns=(stale_stat.st_mtime_ns + 1, stale_stat.st_mtime_ns + 1))
        second = run_lint([str(tmp_path / "src")], base=str(tmp_path))
        assert second.findings == []

    def test_corrupt_cache_file_falls_back_to_cold_parse(self, tmp_path):
        self._write_tree(tmp_path)
        (tmp_path / CACHE_FILENAME).write_bytes(b"not a pickle")
        report = run_lint([str(tmp_path / "src")], base=str(tmp_path))
        assert len(report.findings) == 1

    def test_use_cache_false_writes_nothing(self, tmp_path):
        self._write_tree(tmp_path)
        report = run_lint(
            [str(tmp_path / "src")], base=str(tmp_path), use_cache=False
        )
        assert len(report.findings) == 1
        assert not (tmp_path / CACHE_FILENAME).exists()


# ---------------------------------------------------------------------------
# The shipped tree
# ---------------------------------------------------------------------------
#: What CI's lint job scans.
SHIPPED_TREE = ("src", "tests", "examples", "benchmarks")


class TestShippedTree:
    def test_real_tree_lints_clean_and_fast(self):
        """The acceptance gate: zero unsuppressed findings, < 5 s of CPU.

        ``run_lint`` runs in this process on one thread, so its process
        CPU time is the linter's own cost; wall-clock time would also
        count whatever else the host is running."""
        started = time.process_time()
        report = run_lint(
            [str(REPO_ROOT / part) for part in SHIPPED_TREE], base=str(REPO_ROOT)
        )
        elapsed = time.process_time() - started
        assert report.findings == [], "\n".join(
            finding.format_text() for finding in report.findings
        )
        assert report.files_scanned > 100  # really scanned the tree
        assert elapsed < 5.0, f"lint run took {elapsed:.2f}s of CPU"
        # Every suppression in the shipped tree is justified: the comment
        # carries prose beyond the bare allow[...] marker.
        for finding in report.suppressed:
            module = next(
                m
                for m in LintIndex.from_paths(
                    [str(REPO_ROOT / finding.path)], base=str(REPO_ROOT)
                ).modules
            )
            lines = module.source.splitlines()
            comment = next(
                line
                for line in (lines[finding.line - 2], lines[finding.line - 1])
                if "repro-lint" in line
            )
            justification = comment.split("]", 1)[1].strip()
            assert len(justification) >= 10, (
                f"suppression at {finding.path}:{finding.line} has no "
                f"justification: {comment.strip()!r}"
            )

    def test_module_entrypoint_runs_clean_on_shipped_tree(self):
        """``python -m repro.devtools.lint src tests examples benchmarks``
        exits 0 (JSON mode)."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", *SHIPPED_TREE, "--format=json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        document = json.loads(result.stdout)
        assert document["findings"] == []

    def test_module_entrypoint_fails_on_violation(self, tmp_path):
        """A true positive drives a non-zero exit with a precise finding."""
        bad_root = tmp_path / "src" / "repro" / "engine"
        bad_root.mkdir(parents=True)
        bad = bad_root / "clocky.py"
        bad.write_text("import time\ndef f():\n    return time.time()\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "src"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert result.returncode == 1
        assert "src/repro/engine/clocky.py:3:11 RL001" in result.stdout

    def test_rule_registry_is_complete(self):
        from repro.devtools.lint import rule_ids

        assert rule_ids() == [
            "RL001",
            "RL002",
            "RL003",
            "RL005",
            "RL010",
        ]
