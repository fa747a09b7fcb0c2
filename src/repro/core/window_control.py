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

The session's :class:`~repro.engine.dispatch.DispatchPlan` runs
:meth:`WindowedSpiderScheme.attempt` per payment.  The attempt works off
the pair's compiled handle (:meth:`SimulationSession.path_handle
<repro.engine.session.SimulationSession.path_handle>`): it reads each
path's first-hop funds from the store and launches units on the compiled
path (:meth:`HopByHopTransport.launch
<repro.engine.transport.HopByHopTransport.launch>`), so no path is
compiled and no node tuple is looked up; the attempt's launches are
scheduled with one :meth:`HopByHopTransport.advance_many
<repro.engine.transport.HopByHopTransport.advance_many>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

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
        #: ``(source, dest)`` → the pair's window states, aligned with its
        #: handle's ``cpaths``.  A session's handles are its network's, so
        #: :meth:`prepare` starts the cache afresh; the states themselves
        #: are ``_windows``' own objects.
        self._pair_windows: Dict[Tuple[int, int], List[PathWindow]] = {}
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
        self._pair_windows = {}
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
        transport: Any = getattr(runtime, "transport", None)
        if not hasattr(transport, "send_unit_hop_by_hop"):
            raise TypeError(
                "WindowedSpiderScheme requires a session with "
                "transport='hop'; see repro.engine.transport"
            )
        pair = (payment.source, payment.dest)
        handle = runtime.path_handle(pair[0], pair[1], self.num_paths)
        if handle is None:
            runtime.fail_payment(payment)
            return
        cpaths = handle.cpaths
        windows = self._pair_windows.get(pair)
        if windows is None:
            window = self.window
            windows = self._pair_windows[pair] = [
                window(cpath.nodes) for cpath in cpaths
            ]
        config = runtime.config
        min_unit = config.min_unit_value
        mtu = config.mtu
        store = runtime.network.state_store
        launch = transport.launch
        units: List[HopUnit] = []
        remaining = payment.remaining  # moves only when a unit launches
        # Fill paths in decreasing window-headroom order (the windowed
        # analogue of waterfilling: congestion-controlled paths that have
        # room first); the sort is stable, so ties keep path order.
        # Headroom is ``PathWindow.headroom``'s expression, inlined.
        heads = [max(0.0, state.window - state.inflight) for state in windows]
        for i in sorted(range(len(heads)), key=heads.__getitem__, reverse=True):
            if remaining < min_unit:
                break
            state = windows[i]
            cpath = cpaths[i]
            d = cpath.dir_list[0]
            # Live, not heads[i]: a path set listing one path twice shares
            # its state, which an earlier entry may have filled.
            headroom = max(0.0, state.window - state.inflight)
            while remaining >= min_unit and headroom >= min_unit:
                # The launch constraint is the sender's own first hop;
                # downstream scarcity parks the unit at a router (that is
                # what builds the queueing delay the marks feed back).
                first_hop = (
                    0.0
                    if store.frozen_count and store.frozen[d >> 1]
                    else store.balance_flat.item(d)
                )
                amount = min(remaining, headroom, mtu, first_hop)
                if amount < min_unit:
                    break
                unit = launch(payment, cpath, amount)
                if unit is None:
                    break  # raced away; try the next path
                units.append(unit)
                remaining = payment.remaining
                state.inflight += amount
                headroom = max(0.0, state.window - state.inflight)
        if units:
            # Nothing else was scheduled since the first launch, so the
            # launches occupy a contiguous seq run and one cohort schedule
            # fires them in launch order (see advance_many).
            transport.advance_many(units)

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

