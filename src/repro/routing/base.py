"""Routing scheme interface.

A scheme is pure policy: it decides *which paths and how much*, and uses the
session's two primitives (``send_unit`` / ``send_atomic``) to move money.
The session (passed as ``runtime``) calls :meth:`RoutingScheme.attempt`:

* once at arrival for **atomic** schemes (``atomic = True``) — if the
  attempt locks nothing, the runtime fails the payment (the paper's
  baselines try exactly once);
* at arrival and at every poll for **non-atomic** schemes, while the
  payment has remaining value and has not expired.

Path discovery goes through the network's shared
:class:`~repro.engine.pathservice.PathService`: the default
:meth:`RoutingScheme.prepare` hands schemes a
:class:`~repro.engine.pathservice.PairPathView` as ``self.path_cache`` —
the same ``paths`` / ``shortest`` / ``k`` surface :class:`PathCache`
exposed, but served from one per-network service (CSR array BFS,
process-wide memoisation, optional disk artifacts) instead of a private
per-scheme cache.  :class:`PathCache` itself remains as the standalone
scalar reference implementation.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.fluid.paths import k_edge_disjoint_paths, k_shortest_paths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["RoutingScheme", "PathCache"]

Path = Tuple[int, ...]


class PathCache:
    """Lazily computed, memoised path sets over a static topology.

    Parameters
    ----------
    adjacency:
        ``{node: [neighbours]}`` of the channel graph.
    k:
        Paths per pair (the paper uses 4).
    method:
        ``"edge-disjoint"`` (default, the paper's choice) or ``"yen"``.
    """

    def __init__(self, adjacency: Dict[int, List[int]], k: int = 4, method: str = "edge-disjoint"):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if method not in ("edge-disjoint", "yen"):
            raise ValueError(f"unknown path method {method!r}")
        self._adjacency = adjacency
        self._k = k
        self._method = method
        self._cache: Dict[Tuple[int, int], List[Path]] = {}

    @classmethod
    def from_network(cls, network, k: int = 4, method: str = "edge-disjoint") -> "PathCache":
        """Build from a :class:`~repro.network.network.PaymentNetwork`."""
        adjacency = {
            node: sorted(network.neighbors(node)) for node in network.nodes()
        }
        return cls(adjacency, k=k, method=method)

    @property
    def k(self) -> int:
        """Paths requested per pair."""
        return self._k

    def paths(self, source: int, dest: int) -> List[Path]:
        """The pair's path set (possibly fewer than k paths; empty if
        disconnected)."""
        key = (source, dest)
        if key not in self._cache:
            if self._method == "edge-disjoint":
                found = k_edge_disjoint_paths(self._adjacency, source, dest, self._k)
            else:
                found = k_shortest_paths(self._adjacency, source, dest, self._k)
            self._cache[key] = found
        return self._cache[key]

    def shortest(self, source: int, dest: int) -> Optional[Path]:
        """The pair's shortest path, or ``None`` if disconnected."""
        paths = self.paths(source, dest)
        return paths[0] if paths else None


class RoutingScheme(abc.ABC):
    """Base class for all routing schemes."""

    #: Human-readable name used in reports.
    name: str = "base"
    #: Whether payments are delivered all-or-nothing with a single attempt.
    atomic: bool = False
    #: Native session transport the scheme needs: ``None`` (source-routed),
    #: ``"hop"`` (§4.2 in-network queues / windowed transport) or
    #: ``"backpressure"`` — see :mod:`repro.engine.transport`.  Transport
    #: schemes pass the transport's constructor arguments through an
    #: optional ``runtime_kwargs()`` method.
    transport: Optional[str] = None
    #: Name of the vectorised cohort decision rule the session's
    #: :class:`~repro.engine.dispatch.DispatchPlan` may use in place of
    #: per-payment :meth:`attempt` calls when draining a same-tick cohort
    #: (``"waterfilling"``, ``"shortest-path"``, ``"lnd"`` or
    #: ``"spider-window"``).  ``None`` means the dispatch layer drives
    #: :meth:`attempt` sequentially — still batched at the event level,
    #: with bit-identical results.  Declaring a rule is a promise that the
    #: batched replay reproduces :meth:`attempt`'s decisions byte for
    #: byte — fees, shared channels, frozen hops and all; the parity
    #: suite in ``tests/engine/test_dispatch.py`` enforces it.
    cohort_rule: Optional[str] = None

    def prepare(self, runtime: "SimulationSession") -> None:
        """One-time setup before the trace starts (path/LP precomputation).

        The default implementation binds the network's shared
        :class:`~repro.engine.pathservice.PathService` view as
        ``self.path_cache`` if the subclass declared a ``num_paths``
        attribute — repeated runs and multi-scheme comparisons over the
        same topology share one set of pair computations.
        """
        num_paths = getattr(self, "num_paths", None)
        if num_paths is not None:
            self.path_cache = runtime.network.path_service.view(k=num_paths)

    @abc.abstractmethod
    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        """Try to make progress on ``payment`` given current balances."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
