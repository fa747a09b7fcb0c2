"""Moving funds by hand in tests, on compiled paths.

The engine has one path representation: a node path compiles once
through the network's :class:`~repro.engine.pathtable.PathTable`, locks
with :meth:`~repro.engine.pathtable.PathTable.lock_funds` and resolves
its per-hop actuals through the store's ``settle_path_funds`` /
``refund_path_funds``, exactly as the session's send core does.  These
helpers spell that sequence once for tests that drain a direction or
replay a transfer; a lock is the compiled path plus its actuals.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.engine.pathservice import CsrGraph, PathColumns
from repro.engine.pathtable import CompiledPath
from repro.network.network import PaymentNetwork

__all__ = ["Held", "lock", "pay", "path_columns", "probe", "refund", "settle"]


class Held(NamedTuple):
    """One lock: the compiled path and the per-hop amounts it holds."""

    cpath: CompiledPath
    amounts: List[float]


def lock(
    network: PaymentNetwork,
    path: Sequence,
    amount: float,
    amounts: Optional[Sequence[float]] = None,
) -> Held:
    """Lock ``amount`` on every hop of ``path`` (or ``amounts[i]`` on
    hop ``i``), all or nothing."""
    table = network.path_table
    cpath = table.compile(path)
    if amounts is None:
        amounts = [amount] * len(cpath)
    return Held(cpath, table.lock_funds(cpath, amounts))


def settle(network: PaymentNetwork, held: Held) -> None:
    """Settle every hop of ``held``: each receiver is credited."""
    network.state_store.settle_path_funds(held.cpath.dir_list, held.amounts)


def refund(network: PaymentNetwork, held: Held) -> None:
    """Refund every hop of ``held``: each sender is re-credited."""
    network.state_store.refund_path_funds(held.cpath.dir_list, held.amounts)


def pay(network: PaymentNetwork, path: Sequence, amount: float) -> None:
    """Lock ``amount`` along ``path`` and settle it at once."""
    settle(network, lock(network, path, amount))


def probe(network: PaymentNetwork, paths: Sequence[Sequence]) -> List[float]:
    """The batch bottlenecks of a path set, probed through its handle."""
    table = network.path_table
    return table.bottleneck_many(table.probe_handle(paths))


def path_columns(
    path_sets: Sequence[Sequence[Sequence]], graph: Optional[CsrGraph] = None
) -> PathColumns:
    """Node-tuple path sets as the columns discovery hands the compiler,
    over ``graph`` (default: an edgeless graph of every node they name)."""
    if graph is None:
        names = {node for paths in path_sets for path in paths for node in path}
        graph = CsrGraph.from_adjacency({node: [] for node in names})
    paths = [path for paths in path_sets for path in paths]

    def pointers(sizes: List[int]) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))

    return PathColumns(
        graph,
        pointers([len(paths) for paths in path_sets]),
        pointers([len(path) for path in paths]),
        np.array([graph.index[node] for path in paths for node in path], dtype=np.int32),
    )
