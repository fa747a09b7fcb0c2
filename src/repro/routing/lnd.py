"""LND-style baseline: single cheapest path, atomic, retry with pruning.

The Lightning Network Daemon (the dominant deployed implementation, [22])
source-routes each payment over one path found by a fee-aware Dijkstra
search.  The sender knows channel *capacities* from gossip but not the
balance split, so a chosen hop can turn out to be unfunded; the error is
reported back, the sender prunes the failing channel from its local view
("mission control") and retries, up to a retry budget.  The NSDI version
of the paper uses exactly this scheme as its deployed-system baseline; the
provided text's Lightning discussion (§1-§3) describes the same behaviour.

Model
-----
* Path search runs *backwards* from the destination accumulating the fees
  each intermediary charges (matching
  :meth:`repro.engine.pathtable.CompiledPath.hop_amounts`), so the cost of
  a candidate path is its true total fee plus ``hop_penalty`` per hop —
  with fee-free channels the search degenerates to hop-count shortest
  path, as in the paper's fee-free evaluation.
* The sender sees its own outgoing balances exactly, and every other
  channel only up to total capacity — the information asymmetry that makes
  LND retry.
* Failures are remembered for ``forget_time`` simulated seconds and the
  failing direction is avoided while fresh (LND's mission control).

The session's :class:`~repro.engine.dispatch.DispatchPlan` runs
:meth:`LndScheme.attempt` per payment, as it runs every scheme's.  The
path found is compiled once through the table's memo; the unfunded-hop
check and the atomic send both read that compiled path.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession
    from repro.network.network import PaymentNetwork

__all__ = ["LndScheme"]

Path = Tuple[int, ...]
_EPS = 1e-9


class LndScheme(RoutingScheme):
    """Lightning-daemon routing: cheapest single path with pruning retries.

    Parameters
    ----------
    max_attempts:
        Path attempts per payment before giving up (LND defaults to a
        handful; the paper's baseline uses single-digit retry budgets).
    hop_penalty:
        Cost added per hop so that, under equal fees, shorter paths win.
        Plays the role of LND's time-lock-delta risk factor.
    forget_time:
        How long (simulated seconds) a reported failure keeps its channel
        direction out of consideration for *subsequent* payments.  ``0``
        disables cross-payment memory.
    """

    name = "lnd"
    atomic = True

    def __init__(
        self,
        max_attempts: int = 5,
        hop_penalty: float = 1.0,
        forget_time: float = 5.0,
    ):
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        if hop_penalty < 0:
            raise ValueError(f"hop_penalty must be non-negative, got {hop_penalty}")
        if forget_time < 0:
            raise ValueError(f"forget_time must be non-negative, got {forget_time}")
        self.max_attempts = max_attempts
        self.hop_penalty = hop_penalty
        self.forget_time = forget_time
        #: directed channel -> simulated time of the last reported failure.
        self._mission_control: Dict[Tuple[int, int], float] = {}
        self.attempts_used = 0
        self.failures_reported = 0

    # ------------------------------------------------------------------
    def prepare(self, runtime: "SimulationSession") -> None:
        self._snapshot(runtime.network)

    def _snapshot(self, network: "PaymentNetwork") -> None:
        """Snapshot the gossip view: ``{v: [(u, d), ...]}`` over every
        neighbour ``u`` of ``v`` in ascending order, ``d`` the ``u → v``
        direction id, read off the network's CSR graph (a row lists
        ``v → u``; its twin is ``d ^ 1``).  Capacities and fees are read
        by ``d`` during the search, so no hop is looked up by pair."""
        graph = network.graph()
        nodes, ptr = graph.nodes, graph.indptr.tolist()
        hops = list(
            zip([nodes[j] for j in graph.indices.tolist()], (graph.dirs ^ 1).tolist())
        )
        self._inbound: Dict[int, List[Tuple[int, int]]] = {
            node: hops[ptr[r] : ptr[r + 1]] for r, node in enumerate(nodes)
        }

    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        pruned: set = set()
        now = runtime.now
        for _ in range(self.max_attempts):
            self.attempts_used += 1
            path = self._find_path(
                runtime.network, payment.source, payment.dest, payment.amount,
                pruned, now,
            )
            if path is None:
                runtime.fail_payment(payment)
                return
            table = runtime.network.path_table
            cpath = table.compile(path)
            # The first hop whose balance cannot cover its lock, scanning
            # from the source, as the onion error would report it.
            index = table.unfunded_hop(cpath, cpath.hop_amounts(payment.amount))
            if index is None:
                if runtime.send_atomic(payment, [(cpath, payment.amount)]):
                    return
                # A fee-budget rejection cannot be fixed by pruning a hop.
                runtime.fail_payment(payment)
                return
            failing_hop = path[index : index + 2]
            self.failures_reported += 1
            pruned.add(failing_hop)
            if self.forget_time > 0:
                self._mission_control[failing_hop] = now
        runtime.fail_payment(payment)

    # ------------------------------------------------------------------
    # Sender-side path finding
    # ------------------------------------------------------------------
    def _excluded(self, hop: Tuple[int, int], pruned: set, now: float) -> bool:
        if hop in pruned:
            return True
        if self.forget_time > 0:
            last_failure = self._mission_control.get(hop)
            if last_failure is not None and now - last_failure < self.forget_time:
                return True
        return False

    def _find_path(
        self,
        network: "PaymentNetwork",
        source: int,
        dest: int,
        amount: float,
        pruned: set,
        now: float,
    ) -> Optional[Path]:
        """Cheapest viable path in the sender's gossip view, or ``None``.

        Runs Dijkstra backwards from ``dest``.  The label of node ``v`` is
        ``(cost, lock)`` where ``lock`` is the value the hop *entering*
        ``v`` must carry (delivered amount plus every downstream fee) and
        ``cost = (lock - amount) + hop_penalty × hops`` — total fees plus
        the hop penalty.  Fees are affine and non-negative, so labels are
        monotone and plain Dijkstra is exact.
        """
        inbound = self._inbound
        if source == dest or source not in inbound:
            return None
        # lock[v]: value carried by the hop entering v on the best suffix.
        best_cost: Dict[int, float] = {dest: 0.0}
        lock: Dict[int, float] = {dest: amount}
        successor: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, dest)]
        visited: set = set()
        store = network.state_store
        capacity = store.capacity
        fees = network.direction_index()
        base_fees, fee_rates = fees.base_fees, fees.fee_rates
        while heap:
            cost, v = heapq.heappop(heap)
            if v in visited:
                continue
            visited.add(v)
            if v == source:
                break
            carried = lock[v]
            for u, d in inbound.get(v, ()):
                if u in visited or self._excluded((u, v), pruned, now):
                    continue
                if capacity.item(d >> 1) + _EPS < carried:
                    continue  # gossip says this channel can never carry it
                if u == source:
                    if store.available(d) + _EPS < carried:
                        continue  # the sender knows its own balances
                    candidate_lock = carried
                    fee_step = 0.0  # the sender pays no fee on its own hop
                else:
                    fee_step = base_fees[d] + fee_rates[d] * carried
                    candidate_lock = carried + fee_step
                candidate_cost = cost + fee_step + self.hop_penalty
                if candidate_cost + _EPS < best_cost.get(u, float("inf")):
                    best_cost[u] = candidate_cost
                    lock[u] = candidate_lock
                    successor[u] = v
                    heapq.heappush(heap, (candidate_cost, u))
        if source not in successor:
            return None
        path = [source]
        while path[-1] != dest:
            path.append(successor[path[-1]])
        return tuple(path)
