"""RL010 — artifact loading: ``np.load`` never unpickles.

Discovery artifacts are read back from a cache directory that sweep cells
and earlier runs share (:class:`~repro.engine.pathservice.PersistentCache`
loads ``paths-<key>.npz`` from it).  ``np.load`` unpickles object arrays
when ``allow_pickle`` is true, so a file planted in that directory could
run code; the artifacts hold integer and string columns only, so nothing
the program loads needs a pickle.  Every ``np.load(...)`` call under
``src/`` therefore passes ``allow_pickle=False`` literally — not a
variable, not a ``**kwargs`` splat, not left to the library default — so
the guarantee is visible at the call and cannot drift with a NumPy
release or a caller's flag.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.index import LintIndex
from repro.devtools.lint.registry import rule
from repro.devtools.lint.report import Finding

__all__ = ["NoPickleLoadRule"]


def _refuses_pickles(call: ast.Call) -> bool:
    """Whether ``call`` passes the keyword ``allow_pickle=False``."""
    return any(
        keyword.arg == "allow_pickle"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in call.keywords
    )


@rule
class NoPickleLoadRule:
    """RL010: ``np.load`` in the shipped tree passes ``allow_pickle=False``."""

    id = "RL010"
    summary = "np.load(...) under src/ must pass allow_pickle=False literally"

    def check(self, index: LintIndex) -> Iterator[Finding]:
        for module in index.modules_matching("src/"):
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and module.resolved_call_name(node) == "numpy.load"
                    and not _refuses_pickles(node)
                ):
                    yield Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=self.id,
                        message=(
                            "np.load() without a literal allow_pickle=False "
                            "can unpickle (run code from) a planted artifact; "
                            "pass allow_pickle=False"
                        ),
                    )
