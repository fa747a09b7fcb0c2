"""Node-tuple reference attempts for the schemes that decide on handles.

:meth:`WaterfillingScheme.attempt
<repro.core.waterfilling.WaterfillingScheme.attempt>` and
:meth:`WindowedSpiderScheme.attempt
<repro.core.window_control.WindowedSpiderScheme.attempt>` work off the
pair's compiled handle.  The functions here are the same decision rules
written the plain way: the pair's node-tuple paths from ``path_cache``,
probes through ``network.bottleneck_many`` / ``network.bottleneck`` /
``network.available``, fee-inclusive offers off the channel objects'
schedules, and sends through ``session.send_unit`` /
``session.send_unit_hop_by_hop``, one launch scheduled at a time.
:func:`use_reference_attempt` swaps one onto a scheme instance, so a test
runs the same session both ways and compares metrics bytes and store
arrays.
"""

from __future__ import annotations

import math
from types import MethodType
from typing import Any

from repro.core.waterfilling import WaterfillingScheme
from repro.core.window_control import WindowedSpiderScheme

__all__ = [
    "path_deliverable",
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


def waterfilling_attempt(scheme: Any, payment: Any, runtime: Any) -> None:
    """Waterfilling over the pair's node-tuple paths."""
    paths = scheme.path_cache.paths(payment.source, payment.dest)
    if not paths:
        runtime.fail_payment(payment)
        return
    availability = runtime.network.bottleneck_many(paths)
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
        if not runtime.send_unit(payment, paths[best], amount):
            fresh = runtime.network.bottleneck(paths[best])
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
    paths = scheme.path_cache.paths(payment.source, payment.dest)
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
            if not runtime.send_unit_hop_by_hop(payment, path, amount):
                break
            state.inflight += amount


_REFERENCE = {
    WaterfillingScheme: waterfilling_attempt,
    WindowedSpiderScheme: window_attempt,
}


def use_reference_attempt(scheme: Any) -> Any:
    """Make ``scheme`` decide through its reference attempt; returns it."""
    scheme.attempt = MethodType(_REFERENCE[type(scheme)], scheme)
    return scheme
