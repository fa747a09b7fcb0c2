"""The simulation engine.

This package is the execution core of the reproduction:

``clock``      integer-tick clock (float seconds only at the API boundary)
``events``     slab-allocated event queue and the :class:`TickEngine`
``store``      flat NumPy arrays holding every channel's mutable state
``pathtable``  compiled-path index cache + vectorised path operations
``pathservice`` :class:`PathService` — batched, memoised, persistent
               path discovery (CSR bidirectional search, landmark trees)
``signals``    :class:`ControlPlane` — array-backed congestion signalling
``transport``  hop-by-hop / backpressure transports on the tick engine
``session``    :class:`SimulationSession` — runs a trace; :class:`RuntimeConfig`
"""

from repro.engine.clock import DEFAULT_QUANTUM, TickClock
from repro.engine.events import SlabEventQueue, TickEngine, TickTimer
from repro.engine.pathservice import (
    CsrDisjointProvider,
    CsrGraph,
    LandmarkProvider,
    PathService,
    PersistentCache,
)
from repro.engine.pathtable import CompiledPath, PathTable
from repro.engine.signals import CongestionState, ControlPlane
from repro.engine.store import ChannelStateStore


def __getattr__(name: str) -> object:
    # SimulationSession and the transports pull in the payments/network
    # layers, which themselves build on this package's store — import them
    # lazily so low-level modules (e.g. repro.network.channel) can import
    # repro.engine.store without a cycle.
    if name in ("RuntimeConfig", "SimulationSession"):
        from repro.engine import session

        return getattr(session, name)
    if name in ("BackpressureTransport", "HopByHopTransport", "make_transport"):
        from repro.engine import transport

        return getattr(transport, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BackpressureTransport",
    "ChannelStateStore",
    "CompiledPath",
    "CongestionState",
    "ControlPlane",
    "CsrDisjointProvider",
    "CsrGraph",
    "DEFAULT_QUANTUM",
    "HopByHopTransport",
    "LandmarkProvider",
    "PathService",
    "PathTable",
    "PersistentCache",
    "RuntimeConfig",
    "SimulationSession",
    "SlabEventQueue",
    "TickClock",
    "TickEngine",
    "TickTimer",
    "make_transport",
]
