"""repro-lint: an AST-based linter for the engine's correctness invariants.

Generic linters check style; this one checks the invariants the repo's
correctness story actually rests on — byte-identical replay, versioned
store mutation and integer-tick scheduling.  See
:mod:`repro.devtools.lint.rules` for the rule table and
:mod:`repro.devtools.lint.index` for the suppression syntax
(``# repro-lint: allow[RL003] one-line justification``).

Usage::

    python -m repro.devtools.lint src tests            # text output
    python -m repro.devtools.lint src --format=json    # CI / dashboards
    spider-repro lint                                  # same, via the CLI

Programmatic::

    from repro.devtools.lint import run_lint
    report = run_lint(["src", "tests"])
    assert report.exit_code == 0, report.findings
"""

from repro.devtools.lint.index import LintIndex, ModuleInfo
from repro.devtools.lint.registry import all_rules, rule, rule_ids
from repro.devtools.lint.report import Finding, LintReport, render_json, render_text
from repro.devtools.lint.runner import run_lint, run_over_index

__all__ = [
    "Finding",
    "LintIndex",
    "LintReport",
    "ModuleInfo",
    "all_rules",
    "render_json",
    "render_text",
    "rule",
    "rule_ids",
    "run_lint",
    "run_over_index",
]
