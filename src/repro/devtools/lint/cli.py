"""Command-line front end for the invariant linter.

Two equivalent entry points::

    python -m repro.devtools.lint src tests
    spider-repro lint src tests

Exit codes: ``0`` clean, ``1`` unsuppressed findings (including files the
linter could not parse, reported as ``RL000``), ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.devtools.lint.registry import all_rules
from repro.devtools.lint.report import render_github, render_json, render_text
from repro.devtools.lint.runner import run_lint

__all__ = ["build_parser", "main", "add_lint_arguments", "run_from_args"]

_DEFAULT_ROOTS = ["src", "tests"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the linter's arguments (shared with ``spider-repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "output format: text, json, or github (GitHub Actions "
            "::error annotations; default: text)"
        ),
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "parse every file cold instead of reusing the mtime+size-keyed "
            ".repro-lint-cache.pickle"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter: determinism, ordered iteration, "
            "store-mutation discipline and integer-tick discipline"
        ),
    )
    add_lint_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run for parsed arguments; returns the exit code."""
    if args.list_rules:
        for lint_rule in all_rules():
            print(f"{lint_rule.id}  {lint_rule.summary}")
        return 0
    roots = args.paths or _DEFAULT_ROOTS
    select: Optional[List[str]] = None
    if args.select:
        select = [rule_id.strip() for rule_id in args.select.split(",") if rule_id.strip()]
    try:
        report = run_lint(roots, select=select, use_cache=not args.no_cache)
    except KeyError as exc:
        print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
        return 2
    renderers = {"text": render_text, "json": render_json, "github": render_github}
    rendered = renderers[args.format](report)
    try:
        print(rendered)
    except BrokenPipeError:  # output piped into head/grep that exited early
        pass
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.devtools.lint`` entry point."""
    args = build_parser().parse_args(argv)
    return run_from_args(args)
