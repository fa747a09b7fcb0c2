"""Spider's windowed transport: per-path AIMD windows + router marking.

§4.1 sketches the congestion-control design space ("hosts can use implicit
signals like delay or explicit signals from the routers") and defers the
protocol; the NSDI version of the paper resolves it with a window-based
transport, reproduced here:

* every (sender, destination, path) triple has a **window** bounding the
  value of in-flight transaction units on that path;
* routers **mark** units whose queueing delay exceeds a threshold (the
  1-bit explicit congestion signal: the hop transport hands each service
  batch to the network :class:`~repro.engine.signals.ControlPlane`, which
  scans delays against its per-direction ``mark_threshold`` arrays);
* the receiver echoes the mark on the end-to-end ack, and the sender
  reacts per path: **additive increase** on clean acks (``+alpha`` per
  window's worth of acked value), **multiplicative decrease**
  (``×(1−beta)``, at most once per RTT) on marked acks, and the same
  decrease on losses (queue timeouts).

The scheme runs on the in-network-queue transport, so a unit blocked
mid-path parks at a router (building up the very delay that triggers
marks) instead of failing — the closed loop the NSDI protocol relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.queueing import HopUnit
from repro.routing.base import RoutingScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.payments import Payment
    from repro.engine.session import SimulationSession

__all__ = ["PathWindow", "WindowedSpiderScheme"]

Path = Tuple[int, ...]
_EPS = 1e-9


@dataclass
class PathWindow:
    """AIMD state of one (source, destination, path) triple.

    Attributes
    ----------
    window:
        Maximum value allowed in flight on the path.
    inflight:
        Value currently in flight (units sent, not yet resolved).
    last_decrease:
        Time of the last multiplicative decrease — decreases are applied
        at most once per RTT so one congested queue does not collapse the
        window with a burst of marks from the same window of data.
    """

    window: float
    inflight: float = 0.0
    last_decrease: float = field(default=-float("inf"))

    @property
    def headroom(self) -> float:
        """Value the window still admits."""
        return max(0.0, self.window - self.inflight)


class WindowedSpiderScheme(RoutingScheme):
    """Spider with the NSDI window-based congestion control.

    Parameters
    ----------
    num_paths:
        Paths per pair (the paper's k = 4 edge-disjoint shortest paths).
    initial_window:
        Starting window per path, in value units.
    alpha:
        Additive-increase constant: a clean ack of value ``a`` grows the
        window by ``alpha × a / window`` — about ``alpha`` per RTT when
        the window is busy.
    beta:
        Multiplicative-decrease factor: marked acks and losses shrink the
        window to ``(1 − beta) × window``.
    min_window / max_window:
        Clamp bounds for the window.
    mark_threshold:
        Router queueing delay (seconds) beyond which units are marked.
    hop_delay / queue_timeout:
        In-network-queue transport parameters
        (:class:`~repro.engine.transport.HopByHopTransport`).
    rtt:
        Decrease guard interval; defaults to ``None`` meaning "use the
        runtime's confirmation delay".
    """

    name = "spider-window"
    atomic = False
    transport = "hop"
    #: The launch loop (window-headroom sort, first-hop clamp, clean-fail
    #: try_lock) is replayed batched by the session's DispatchPlan: its
    #: launches land through one lock_many and one advance_many per
    #: cohort (``isp-window`` ran 1.15× slower with every cohort sequential).
    cohort_rule = "spider-window"

    def __init__(
        self,
        num_paths: int = 4,
        initial_window: float = 500.0,
        alpha: float = 10.0,
        beta: float = 0.5,
        min_window: float = 1.0,
        max_window: float = 1e9,
        mark_threshold: float = 0.3,
        hop_delay: float = 0.05,
        queue_timeout: float = 5.0,
        rtt: Optional[float] = None,
    ):
        if num_paths <= 0:
            raise ValueError(f"num_paths must be positive, got {num_paths}")
        if initial_window <= 0:
            raise ValueError(f"initial_window must be positive, got {initial_window}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        if min_window <= 0:
            raise ValueError(f"min_window must be positive, got {min_window}")
        if max_window < min_window:
            raise ValueError(
                f"max_window {max_window} is below min_window {min_window}"
            )
        self.num_paths = num_paths
        self.initial_window = initial_window
        self.alpha = alpha
        self.beta = beta
        self.min_window = min_window
        self.max_window = max_window
        self.mark_threshold = mark_threshold
        self.hop_delay = hop_delay
        self.queue_timeout = queue_timeout
        self.rtt = rtt
        self._windows: Dict[Path, PathWindow] = {}
        self.clean_acks = 0
        self.marked_acks = 0
        self.losses = 0

    def runtime_kwargs(self) -> Dict[str, object]:
        """Constructor arguments for the session's transport."""
        return {
            "mark_threshold": self.mark_threshold,
            "hop_delay": self.hop_delay,
            "queue_timeout": self.queue_timeout,
        }

    # ------------------------------------------------------------------
    # Window state
    # ------------------------------------------------------------------
    def prepare(self, runtime: "SimulationSession") -> None:
        super().prepare(runtime)
        if self.rtt is None:
            # One confirmation delay is the natural RTT of this transport.
            self.rtt = max(runtime.config.confirmation_delay, 1e-3)

    def window(self, path: Path) -> PathWindow:
        """The AIMD state of ``path`` (created on first use)."""
        state = self._windows.get(path)
        if state is None:
            state = PathWindow(window=self.initial_window)
            self._windows[path] = state
        return state

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def attempt(self, payment: "Payment", runtime: "SimulationSession") -> None:
        if not hasattr(getattr(runtime, "transport", None), "send_unit_hop_by_hop"):
            raise TypeError(
                "WindowedSpiderScheme requires a session with "
                "transport='hop'; see repro.engine.transport"
            )
        paths = self.path_cache.paths(payment.source, payment.dest)
        if not paths:
            runtime.fail_payment(payment)
            return
        min_unit = runtime.config.min_unit_value
        # Fill paths in decreasing window-headroom order (the windowed
        # analogue of waterfilling: congestion-controlled paths that have
        # room first).
        states = sorted(
            ((self.window(p), p) for p in paths),
            key=lambda item: item[0].headroom,
            reverse=True,
        )
        for state, path in states:
            while payment.remaining >= min_unit and state.headroom >= min_unit:
                # The launch constraint is the sender's own first hop;
                # downstream scarcity parks the unit at a router (that is
                # what builds the queueing delay the marks feed back).
                first_hop = runtime.network.available(path[0], path[1])
                amount = min(
                    payment.remaining, state.headroom, runtime.config.mtu, first_hop
                )
                if amount < min_unit:
                    break
                if not runtime.send_unit_hop_by_hop(payment, path, amount):
                    break  # raced away; try the next path
                state.inflight += amount

    # ------------------------------------------------------------------
    # The ack path (called by the queueing runtime)
    # ------------------------------------------------------------------
    def on_unit_resolved(self, unit: HopUnit, outcome: str, now: float) -> None:
        """AIMD reaction to one end-to-end ack or loss."""
        state = self.window(unit.path)
        state.inflight = max(0.0, state.inflight - unit.amount)
        congested = unit.marked or outcome == "lost"
        if outcome == "lost":
            self.losses += 1
        elif unit.marked:
            self.marked_acks += 1
        else:
            self.clean_acks += 1
        if congested:
            self._decrease(state, now)
        elif outcome == "settled":
            increment = self.alpha * unit.amount / max(state.window, _EPS)
            state.window = min(self.max_window, state.window + increment)
        # "cancelled" without a mark (deadline withhold) is neutral: it
        # says nothing about congestion on this path.

    def _decrease(self, state: PathWindow, now: float) -> None:
        guard = self.rtt if self.rtt is not None else 0.5  # pre-prepare default
        if now - state.last_decrease < guard:
            return
        state.window = max(self.min_window, state.window * (1.0 - self.beta))
        state.last_decrease = now

    # ------------------------------------------------------------------
    def window_snapshot(self) -> Dict[Path, float]:
        """Current window per path (diagnostics / convergence plots)."""
        return {path: state.window for path, state in self._windows.items()}

