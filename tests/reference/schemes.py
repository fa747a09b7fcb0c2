"""Node-tuple reference arms for the schemes' attempts and the atomic send.

:meth:`WaterfillingScheme.attempt
<repro.core.waterfilling.WaterfillingScheme.attempt>`,
:meth:`WindowedSpiderScheme.attempt
<repro.core.window_control.WindowedSpiderScheme.attempt>` and
:meth:`AmpWaterfillingScheme.attempt
<repro.core.amp.AmpWaterfillingScheme.attempt>` work off the pair's
compiled handle.  The functions here are the same decision rules written
the plain way: the pair's node-tuple paths from
``network.path_service.view(k)``, probes through the per-hop
:class:`~tests.reference.path_ops.ReferencePathOps` and
``network.available``, fee-inclusive offers off the channel objects'
schedules, one launch scheduled at a time through
``session.send_unit_hop_by_hop`` (on the node path, compiled right before
the call).

:func:`send_atomic` is the atomic send written over node tuples and
per-hop store arithmetic: shares priced, locked and rolled back by
:class:`~tests.reference.path_ops.ReferencePathOps`, with no path-table
kernel involved; only the unit record the session resolves carries the
share's compiled path.  The atomic schemes (LND, max-flow, the landmark
and embedding schemes, AMP) lock through it in their reference arm.

:func:`use_reference_attempt` swaps an arm onto a scheme instance, so a
test runs the same session both ways and compares metrics bytes and store
arrays.
"""

from __future__ import annotations

import math
from types import MethodType
from typing import Any

from repro.core.amp import AmpWaterfillingScheme, waterfill_allocation
from repro.core.payments import TransactionUnit
from repro.core.waterfilling import WaterfillingScheme
from repro.core.window_control import WindowedSpiderScheme
from repro.errors import InsufficientFundsError
from repro.routing.embedding import SpeedyMurmursScheme
from repro.routing.landmark import LandmarkScheme
from repro.routing.lnd import LndScheme
from repro.routing.max_flow import MaxFlowScheme
from tests.reference.path_ops import ReferencePathOps

__all__ = [
    "amp_attempt",
    "atomic_attempt",
    "path_deliverable",
    "send_atomic",
    "use_reference_attempt",
    "waterfilling_attempt",
    "window_attempt",
]


def _fee_free(network: Any, path: Any) -> bool:
    """No channel on ``path`` charges a fee (its first hop's included)."""
    return not any(
        network.channel(u, v).base_fee or network.channel(u, v).fee_rate
        for u, v in zip(path, path[1:])
    )


def path_deliverable(network: Any, path: Any) -> float:
    """Most value ``path`` delivers once every hop carries the downstream
    fees: walking back from the destination, hop ``(u, v)`` must hold
    ``scale · x + shift``, and its channel's schedule then grows both for
    the hop before it."""
    scale, shift, best = 1.0, 0.0, math.inf
    for u, v in reversed(list(zip(path, path[1:]))):
        channel = network.channel(u, v)
        best = min(best, (network.available(u, v) - shift) / scale)
        growth = 1.0 + channel.fee_rate
        scale *= growth
        shift = shift * growth + channel.base_fee
    return best


def pair_paths(scheme: Any, payment: Any, runtime: Any) -> Any:
    """The pair's node-tuple paths from the scheme's discovery view."""
    view = runtime.network.path_service.view(scheme.num_paths)
    return view.paths(payment.source, payment.dest)


def waterfilling_attempt(scheme: Any, payment: Any, runtime: Any) -> None:
    """Waterfilling over the pair's node-tuple paths."""
    paths = pair_paths(scheme, payment, runtime)
    if not paths:
        runtime.fail_payment(payment)
        return
    ops = ReferencePathOps(runtime.network)
    availability = [ops.bottleneck(path) for path in paths]
    min_unit = runtime.config.min_unit_value
    while payment.remaining >= min_unit:
        # The path with the largest remaining estimate (first on a tie).
        best = max(range(len(paths)), key=lambda i: availability[i])
        headroom = availability[best]
        if headroom < min_unit:
            break
        amount = min(headroom, payment.remaining, runtime.config.mtu)
        if not _fee_free(runtime.network, paths[best]):
            deliverable = path_deliverable(runtime.network, paths[best])
            if deliverable < min_unit:
                availability[best] = 0.0
                continue
            amount = min(amount, deliverable)
        cpath = runtime.network.path_table.compile(paths[best])
        if not runtime.send_compiled(payment, cpath, amount):
            fresh = ops.bottleneck(paths[best])
            if fresh >= amount - 1e-12 or fresh < min_unit:
                availability[best] = 0.0
            else:
                availability[best] = fresh
            continue
        availability[best] -= amount


def window_attempt(scheme: Any, payment: Any, runtime: Any) -> None:
    """The windowed launch loop over the pair's node-tuple paths."""
    if not hasattr(getattr(runtime, "transport", None), "send_unit_hop_by_hop"):
        raise TypeError("the window loop needs a hop transport")
    paths = pair_paths(scheme, payment, runtime)
    if not paths:
        runtime.fail_payment(payment)
        return
    min_unit = runtime.config.min_unit_value
    states = sorted(
        ((scheme.window(p), p) for p in paths),
        key=lambda item: item[0].headroom,
        reverse=True,
    )
    for state, path in states:
        while payment.remaining >= min_unit and state.headroom >= min_unit:
            first_hop = runtime.network.available(path[0], path[1])
            amount = min(
                payment.remaining, state.headroom, runtime.config.mtu, first_hop
            )
            if amount < min_unit:
                break
            cpath = runtime.network.path_table.compile(path)
            if not runtime.send_unit_hop_by_hop(payment, cpath, amount):
                break
            state.inflight += amount


def send_atomic(session: Any, payment: Any, allocations: Any) -> bool:
    """Lock ``allocations`` all-or-nothing over node tuples.

    A share's path may be a compiled path (its ``nodes`` are used).  A
    bounced lock counts in the session's ``failed_locks`` as the send core
    counts it; the shares locked before it are refunded and their units
    cancelled.
    """
    total = sum(amount for _, amount in allocations)
    if total < payment.amount - 1e-6:
        return False
    ops = ReferencePathOps(session.network)
    shares = []
    total_fee = 0.0
    for path, amount in allocations:
        if amount <= 1e-9:
            continue
        path = getattr(path, "nodes", path)
        amounts = ops.hop_amounts(path, amount)
        if amounts:
            total_fee += amounts[0] - amount
        shares.append((path, amount, amounts))
    if total_fee > 0 and not payment.fee_budget_allows(total_fee):
        return False
    compile_path = session.network.path_table.compile
    locked = []
    try:
        for path, amount, amounts in shares:
            hops = ops.lock_path(path, amount, amounts=amounts)
            payment.register_inflight(amount)
            unit = TransactionUnit(
                payment,
                amount,
                compile_path(path),
                [hop.amount for hop in hops],
                amounts[0] - amount if amounts else 0.0,
            )
            locked.append((path, hops, unit))
    except InsufficientFundsError:
        session._failed_locks += 1
        for path, hops, unit in locked:
            ops.refund_path(path, hops)
            payment.register_cancelled(unit.amount)
            unit.mark_cancelled()
        return False
    for _, _, unit in locked:
        session._schedule_resolve(unit)
    return True


def atomic_attempt(scheme: Any, payment: Any, runtime: Any) -> None:
    """The scheme's own attempt, its shares locked by :func:`send_atomic`."""
    runtime.send_atomic = MethodType(send_atomic, runtime)
    type(scheme).attempt(scheme, payment, runtime)


def amp_attempt(scheme: Any, payment: Any, runtime: Any) -> None:
    """AMP over the pair's node-tuple paths, locked by :func:`send_atomic`."""
    paths = pair_paths(scheme, payment, runtime)
    if not paths:
        runtime.fail_payment(payment)
        return
    ops = ReferencePathOps(runtime.network)
    capacities = [ops.bottleneck(path) for path in paths]
    if sum(capacities) < payment.amount - 1e-6:
        runtime.fail_payment(payment)
        return
    shares = waterfill_allocation(payment.amount, capacities)
    allocations = [(path, share) for path, share in zip(paths, shares) if share > 1e-9]
    if not send_atomic(runtime, payment, allocations):
        runtime.fail_payment(payment)


_REFERENCE = {
    WaterfillingScheme: waterfilling_attempt,
    WindowedSpiderScheme: window_attempt,
    AmpWaterfillingScheme: amp_attempt,
    LndScheme: atomic_attempt,
    MaxFlowScheme: atomic_attempt,
    LandmarkScheme: atomic_attempt,
    SpeedyMurmursScheme: atomic_attempt,
}


def use_reference_attempt(scheme: Any) -> Any:
    """Make ``scheme`` decide through its reference attempt; returns it."""
    scheme.attempt = MethodType(_REFERENCE[type(scheme)], scheme)
    return scheme
