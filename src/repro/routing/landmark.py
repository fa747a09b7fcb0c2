"""SilentWhispers-style landmark routing baseline.

SilentWhispers [18] routes every payment through a small set of well-known
*landmarks*: the sender routes to a landmark, the landmark routes to the
receiver, and the payment value is split into one share per landmark
(multi-path but atomic — if the shares cannot jointly cover the value, the
payment fails).

Faithful simplifications (documented in DESIGN.md):

* landmarks are the ``num_landmarks`` highest-degree nodes, the standard
  proxy for the "known, central" landmark set;
* the share split is proportional to each landmark path's probed capacity
  (as in the SpeedyMurmurs paper's evaluation of SilentWhispers), instead
  of cryptographic random shares — routing behaviour is identical, privacy
  machinery is out of scope;
* paths are concatenations shortest(s→l) ⧺ shortest(l→d) with any loops
  contracted, matching the landmark-tree construction on a static topology.

Discovery runs through the network's shared
:class:`~repro.engine.pathservice.PathService`: a
:class:`~repro.engine.pathservice.LandmarkProvider` assembles both legs
from memoised BFS trees (one per landmark plus one per distinct source)
instead of two fresh per-pair searches, with identical tie-breaks —
a BFS parent chain is the same whether or not the search stopped early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.pathservice import LandmarkProvider, contract_loops
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["LandmarkScheme", "contract_loops"]

Path = Tuple[int, ...]
_EPS = 1e-9


class LandmarkScheme(RoutingScheme):
    """Landmark (SilentWhispers) routing: atomic, multi-share."""

    name = "silentwhispers"
    atomic = True

    def __init__(self, num_landmarks: int = 3):
        if num_landmarks <= 0:
            raise ValueError(f"num_landmarks must be positive, got {num_landmarks}")
        self.num_landmarks = num_landmarks
        self._landmarks: List[int] = []
        self._provider: Optional[LandmarkProvider] = None

    def prepare(self, runtime: "SimulationSession") -> None:
        provider = runtime.network.path_service.landmark_provider(
            self.num_landmarks
        )
        self._provider = provider
        self._landmarks = provider.landmarks

    def landmark_paths(self, source: int, dest: int) -> List[Path]:
        """One loop-free path per landmark (deduplicated, memoised)."""
        return self._provider.paths(source, dest)

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        paths = self.landmark_paths(payment.source, payment.dest)
        if not paths:
            runtime.fail_payment(payment)
            return
        # Batched probe: the landmark path set is fixed per pair, so a
        # repeat attempt with no store write in between reuses the cache.
        capacities = runtime.network.bottleneck_many(paths)
        total = sum(capacities)
        if total < payment.amount - 1e-6:
            runtime.fail_payment(payment)
            return
        # Allocate proportionally to capacity, then fix rounding greedily so
        # no share exceeds its path capacity and the shares sum to amount.
        allocations: List[Tuple[Path, float]] = []
        remaining = payment.amount
        order = sorted(range(len(paths)), key=lambda i: -capacities[i])
        for rank, i in enumerate(order):
            if remaining <= _EPS:
                break
            if rank == len(order) - 1:
                share = remaining
            else:
                share = min(payment.amount * capacities[i] / total, capacities[i])
            share = min(share, remaining, capacities[i])
            if share > _EPS:
                allocations.append((paths[i], share))
                remaining -= share
        # Any residue (rounding) goes to paths with leftover capacity.
        if remaining > _EPS:
            for i in order:
                used = sum(a for p, a in allocations if p == paths[i])
                slack = capacities[i] - used
                if slack > _EPS:
                    take = min(slack, remaining)
                    allocations.append((paths[i], take))
                    remaining -= take
                    if remaining <= _EPS:
                        break
        compile = runtime.network.path_table.compile
        if remaining > 1e-6 or not runtime.send_atomic(
            payment, [(compile(path), share) for path, share in allocations]
        ):
            runtime.fail_payment(payment)
