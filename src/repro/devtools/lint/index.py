"""One-pass parsed-module index shared by every lint rule.

The linter's rules all operate on the same facts: the AST of every
Python file under the scanned roots, each file's repo-relative path, the
module's import-alias table, and the ``# repro-lint: allow[RULE]``
suppression comments.  :class:`LintIndex` computes all of that in a
single ``ast.parse`` pass (plus a ``tokenize`` pass over only the files
that textually contain a suppression marker), so a full ``src/ + tests/``
run stays well under a second and adding a rule costs nothing at parse
time.

Suppression semantics
---------------------
A comment ``# repro-lint: allow[RL003] justification...`` silences the
listed rule ids on the comment's own line *and* on the line directly
below it — so both trailing-comment and own-line styles work::

    store.queue_depth[cid, side] = depth  # repro-lint: allow[RL003] telemetry

    # repro-lint: allow[RL002] insertion order is the arrival order
    for queue in self._queues.values():

Several rules may be listed comma-separated: ``allow[RL001,RL005]``.
Suppressions are per-rule by design; there is no blanket opt-out.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devtools.lint.cache import ParseCache

__all__ = ["ModuleInfo", "LintIndex", "ParseFailure", "dotted_name"]

#: Marker every suppression comment must contain.
_SUPPRESS_RE = re.compile(r"repro-lint:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def dotted_name(node: ast.expr) -> Optional[str]:
    """The dotted source text of a Name/Attribute chain, else ``None``.

    ``np.random.default_rng`` ->  ``"np.random.default_rng"``;
    anything containing a call, subscript or literal yields ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class ParseFailure:
    """A file the index could not parse (reported, exits the run red)."""

    path: str
    message: str


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed source file."""

    path: str  # repo-relative, forward slashes
    tree: ast.Module
    source: str
    #: Whether the file lives under a ``tests`` root.
    is_test: bool
    #: line number -> rule ids silenced on that line.
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: local alias -> full dotted module/object name (``np`` -> ``numpy``,
    #: ``default_rng`` -> ``numpy.random.default_rng``).
    import_aliases: Dict[str, str] = field(default_factory=dict)

    def resolve(self, dotted: str) -> str:
        """Expand the leading alias of a dotted name through the imports."""
        head, sep, rest = dotted.partition(".")
        expanded = self.import_aliases.get(head)
        if expanded is None:
            return dotted
        return expanded + sep + rest if rest else expanded

    def resolved_call_name(self, node: ast.Call) -> Optional[str]:
        """The alias-expanded dotted name of a call's target, if static."""
        name = dotted_name(node.func)
        if name is None:
            return None
        return self.resolve(name)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is silenced at ``line`` (see module doc)."""
        if not self.suppressions:
            return False
        for probe in (line, line - 1):
            rules = self.suppressions.get(probe)
            if rules is not None and rule_id in rules:
                return True
        return False


def _collect_import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map every top-level-visible import alias to its full dotted name."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.partition(".")[0]
                full = name.name if name.asname else name.name.partition(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never hit the banned set
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    """Parse ``# repro-lint: allow[...]`` comments via tokenize.

    Tokenising (rather than regexing raw lines) means markers inside
    string literals can never create phantom suppressions.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = {
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            }
            line = token.start[0]
            suppressions.setdefault(line, set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - parse already succeeded
        pass
    return suppressions


class LintIndex:
    """The shared single-pass index every rule reads.

    Build it from filesystem roots (:meth:`from_paths`) for real runs or
    from in-memory sources (:meth:`from_sources`) for rule fixtures.
    """

    def __init__(
        self,
        modules: Sequence[ModuleInfo],
        failures: Sequence[ParseFailure] = (),
    ):
        self.modules: List[ModuleInfo] = list(modules)
        self.failures: List[ParseFailure] = list(failures)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        roots: Iterable[str],
        base: Optional[str] = None,
        cache: Optional["ParseCache"] = None,
    ) -> "LintIndex":
        """Index every ``*.py`` under ``roots`` (files or directories).

        Paths in findings are reported relative to ``base`` (default: the
        current working directory) whenever possible, absolute otherwise.
        When a :class:`~repro.devtools.lint.cache.ParseCache` is passed,
        files whose ``(mtime_ns, size)`` stat signature matches a cached
        entry skip the parse + tokenize pass entirely; the caller owns
        calling ``cache.save()`` afterwards.
        """
        base_path = Path(base) if base is not None else Path.cwd()
        modules: List[ModuleInfo] = []
        failures: List[ParseFailure] = []
        seen: Set[Path] = set()
        for root in roots:
            root_path = Path(root)
            if root_path.is_file():
                candidates = [root_path]
            elif root_path.is_dir():
                candidates = sorted(root_path.rglob("*.py"))
            else:
                failures.append(
                    ParseFailure(path=str(root), message="no such file or directory")
                )
                continue
            for file_path in candidates:
                resolved = file_path.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                try:
                    rel = str(resolved.relative_to(base_path.resolve()))
                except ValueError:
                    rel = str(file_path)
                rel = rel.replace("\\", "/")
                stat: Optional[os.stat_result] = None
                if cache is not None:
                    try:
                        stat = resolved.stat()
                    except OSError:
                        stat = None
                    if stat is not None:
                        cached = cache.get(resolved, stat)
                        if cached is not None:
                            if cached.path != rel:  # base moved; repoint
                                cached = replace(cached, path=rel)
                            modules.append(cached)
                            continue
                try:
                    source = file_path.read_text(encoding="utf-8")
                    tree = ast.parse(source, filename=rel)
                except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                    failures.append(ParseFailure(path=rel, message=str(exc)))
                    continue
                module = _build_module(rel, source, tree)
                if cache is not None and stat is not None:
                    cache.put(resolved, stat, module)
                modules.append(module)
        return cls(modules, failures)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "LintIndex":
        """Index in-memory ``{path: source}`` snippets (fixture support)."""
        modules: List[ModuleInfo] = []
        failures: List[ParseFailure] = []
        for path, source in sorted(sources.items()):
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                failures.append(ParseFailure(path=path, message=str(exc)))
                continue
            modules.append(_build_module(path, source, tree))
        return cls(modules, failures)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.modules)

    def src_modules(self) -> Iterator[ModuleInfo]:
        """Modules that are part of the shipped tree (not tests)."""
        for module in self.modules:
            if not module.is_test:
                yield module

    def modules_matching(self, *prefixes: str) -> Iterator[ModuleInfo]:
        """Source modules whose repo-relative path starts with a prefix."""
        for module in self.src_modules():
            if module.path.startswith(prefixes):
                yield module


def _is_test_path(path: str) -> bool:
    parts = path.split("/")
    return "tests" in parts or parts[-1].startswith("test_")


def _build_module(path: str, source: str, tree: ast.Module) -> ModuleInfo:
    suppressions: Dict[int, Set[str]] = {}
    if "repro-lint" in source:  # cheap pre-check before tokenising
        suppressions = _collect_suppressions(source)
    return ModuleInfo(
        path=path,
        tree=tree,
        source=source,
        is_test=_is_test_path(path),
        suppressions=suppressions,
        import_aliases=_collect_import_aliases(tree),
    )
