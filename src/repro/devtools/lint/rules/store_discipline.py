"""RL003 — versioned ``ChannelStateStore`` mutation discipline.

``PathTable`` probe caches (the pair handles schemes probe) trust one
invariant: any write that changes a channel's state bumps
``store.version`` (usually via ``store.touch(cid)`` or one of the store
methods that bump it internally).  A probe is fresh exactly while its
snapshot equals ``version``, so a direct array write without a bump
leaves every cached probe silently stale.

The store's own module maintains the version internally and is exempt;
every funds write (lock, settle, refund) is one of its methods.
Everywhere else, a subscripted write to a store array attribute
(``x.balance[cid, side] = ...``, ``np.add.at(store.inflight, ...)``) must
be paired — in the same function — with a ``.touch(...)`` call or a
direct ``.version`` bump.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.devtools.lint.index import LintIndex, dotted_name
from repro.devtools.lint.registry import rule
from repro.devtools.lint.report import Finding

__all__ = ["StoreDisciplineRule"]

#: Modules that own version maintenance and may write arrays freely.
EXEMPT_MODULES = ("src/repro/engine/store.py",)

#: The store's mutable array attributes (see ChannelStateStore.__slots__),
#: including the direction-indexed 1-D views of the four funds arrays: a
#: write through ``store.balance_flat[dirs]`` lands in the same memory.
STORE_ARRAYS = {
    "balance",
    "inflight",
    "sent",
    "settled_flow",
    "balance_flat",
    "inflight_flat",
    "sent_flat",
    "settled_flow_flat",
    "queue_depth",
    "capacity",
    "total_deposited",
    "num_settled",
    "num_refunded",
    "frozen",
}

#: ``np.<ufunc>.at`` in-place scatter calls that mutate their first arg.
_SCATTER_CALLS = {
    f"numpy.{ufunc}.at"
    for ufunc in ("add", "subtract", "multiply", "divide", "maximum", "minimum")
}


def _store_array_attr(node: ast.expr) -> Optional[str]:
    """The store-array attribute name if ``node`` is ``<expr>.<array>``."""
    if isinstance(node, ast.Attribute) and node.attr in STORE_ARRAYS:
        return node.attr
    return None


def _written_array(target: ast.expr) -> Optional[Tuple[str, ast.expr]]:
    """``(array_name, node)`` when ``target`` writes a store array slot."""
    if isinstance(target, ast.Subscript):
        attr = _store_array_attr(target.value)
        if attr is not None:
            return attr, target
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            hit = _written_array(element)
            if hit is not None:
                return hit
    return None


class _ScopeAuditor(ast.NodeVisitor):
    """Collect store-array writes and version bumps per function scope."""

    def __init__(self, module) -> None:
        self.module = module
        #: (scope-key, array name, node) per direct write.
        self.writes: List[Tuple[int, str, ast.AST]] = []
        #: scope keys containing a version bump.
        self.bumped: set[int] = set()
        self._scope_stack: List[int] = [0]  # 0 == module scope

    # -- scope tracking -------------------------------------------------
    def _enter_scope(self, node: ast.AST) -> None:
        self._scope_stack.append(id(node))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)
        self.generic_visit(node)
        self._scope_stack.pop()

    # -- writes and bumps ----------------------------------------------
    @property
    def _scope(self) -> int:
        return self._scope_stack[-1]

    def _record_write(self, array: str, node: ast.AST) -> None:
        self.writes.append((self._scope, array, node))

    def _record_bump(self) -> None:
        self.bumped.add(self._scope)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def _check_target(self, target: ast.expr) -> None:
        # version bump: `store.version = ...` / `store.version += 1`
        if isinstance(target, ast.Attribute) and target.attr == "version":
            self._record_bump()
            return
        hit = _written_array(target)
        if hit is not None:
            self._record_write(*hit)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "touch":
            self._record_bump()
        else:
            resolved = self.module.resolved_call_name(node)
            if resolved in _SCATTER_CALLS and node.args:
                attr = _store_array_attr(node.args[0])
                if attr is not None:
                    self._record_write(attr, node)
        self.generic_visit(node)


@rule
class StoreDisciplineRule:
    """RL003: store array writes outside the store pair with a version bump."""

    id = "RL003"
    summary = (
        "direct ChannelStateStore array writes outside store.py must "
        "bump version (or touch()) in the same function"
    )

    def check(self, index: LintIndex) -> Iterator[Finding]:
        for module in index.src_modules():
            if module.path.endswith(EXEMPT_MODULES):
                continue
            auditor = _ScopeAuditor(module)
            auditor.visit(module.tree)
            for scope, array, node in auditor.writes:
                if scope in auditor.bumped:
                    continue
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.id,
                    message=(
                        f"direct write to store array '.{array}[...]' without "
                        "a version bump in the same function; cached path "
                        "probes go stale — call store.touch(cid) (or use a "
                        "store method)"
                    ),
                )
