"""Fault injection: channel closures and node churn during a run.

The paper's evaluation assumes a static topology, but §7 flags robustness
("adversarial routers", channel lifecycle) as open questions and every
deployed PCN loses channels and nodes mid-operation.  This module injects
faults into a running simulation:

* **channel closure** — a channel freezes at a given time: it accepts no
  new locks, while pending transfers still settle or time out (the
  cooperative-close semantics of §2; no funds ever vanish);
* **node outage** — every channel adjacent to a node freezes for an
  interval, then thaws (a router going offline and returning);
* **random churn** — a seeded Poisson process of node outages, the
  standard robustness workload.

Faults are pure substrate events: schemes see them only through the
signals they already use (``available`` drops to zero, locks raise
``InsufficientFundsError``), so every scheme's published failure-handling
path — LND's pruning retries, waterfilling's re-probing, backpressure's
gradients — is exercised unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.network.network import canonical_edge
from repro.simulator.rng import SeedLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import SimulationSession
    from repro.network.network import PaymentNetwork

__all__ = [
    "ChannelClosure",
    "NodeOutage",
    "FaultSchedule",
    "random_churn_schedule",
]


@dataclass(frozen=True)
class ChannelClosure:
    """Channel (u, v) permanently freezes at ``time``."""

    time: float
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"closure time must be non-negative, got {self.time!r}")


@dataclass(frozen=True)
class NodeOutage:
    """Node ``node`` is offline during [start, end)."""

    start: float
    end: float
    node: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(
                f"outage interval [{self.start!r}, {self.end!r}) is invalid"
            )


class FaultSchedule:
    """An ordered collection of faults installable into a runtime.

    Node outages may overlap (a channel stays frozen until *every* reason
    for freezing it has lapsed — the schedule reference-counts freezes).
    """

    def __init__(self, events: Iterable[object] = ()):
        self.closures: List[ChannelClosure] = []
        self.outages: List[NodeOutage] = []
        for event in events:
            self.add(event)
        #: (u, v) canonical -> number of active freeze reasons.
        self._freeze_counts: Dict[Tuple[int, int], int] = {}
        self.closures_applied = 0
        self.outages_applied = 0

    def add(self, event: object) -> None:
        """Append one fault event."""
        if isinstance(event, ChannelClosure):
            self.closures.append(event)
        elif isinstance(event, NodeOutage):
            self.outages.append(event)
        else:
            raise ConfigError(f"unknown fault event {event!r}")

    def __len__(self) -> int:
        return len(self.closures) + len(self.outages)

    # ------------------------------------------------------------------
    def install(self, runtime: "SimulationSession") -> None:
        """Schedule every fault on the runtime's simulator clock.

        Call after constructing the runtime and before ``run()``.
        """
        for closure in self.closures:
            runtime.sim.call_at(closure.time, self._close_channel, runtime.network,
                                closure)
        for outage in self.outages:
            runtime.sim.call_at(outage.start, self._node_down, runtime.network,
                                outage.node)
            runtime.sim.call_at(outage.end, self._node_up, runtime.network,
                                outage.node)

    def _freeze(self, network: "PaymentNetwork", u: int, v: int) -> None:
        key = canonical_edge(u, v)
        self._freeze_counts[key] = self._freeze_counts.get(key, 0) + 1
        network.state_store.set_frozen(network.direction_id(u, v) >> 1, True)

    def _thaw(self, network: "PaymentNetwork", u: int, v: int) -> None:
        key = canonical_edge(u, v)
        count = self._freeze_counts.get(key, 0) - 1
        if count <= 0:
            self._freeze_counts.pop(key, None)
            network.state_store.set_frozen(network.direction_id(u, v) >> 1, False)
        else:
            self._freeze_counts[key] = count

    def _close_channel(self, network: "PaymentNetwork", closure: ChannelClosure) -> None:
        if network.has_channel(closure.u, closure.v):
            self._freeze(network, closure.u, closure.v)
            self.closures_applied += 1

    def _node_down(self, network: "PaymentNetwork", node: int) -> None:
        if not network.has_node(node):
            return
        for neighbor in list(network.neighbors(node)):
            self._freeze(network, node, neighbor)
        self.outages_applied += 1

    def _node_up(self, network: "PaymentNetwork", node: int) -> None:
        if not network.has_node(node):
            return
        for neighbor in list(network.neighbors(node)):
            self._thaw(network, node, neighbor)


def random_churn_schedule(
    nodes: Sequence[int],
    duration: float,
    churn_rate: float,
    outage_duration: float,
    seed: SeedLike = 0,
) -> FaultSchedule:
    """A Poisson node-churn schedule.

    Parameters
    ----------
    nodes:
        Candidate nodes (outage victims are drawn uniformly).
    duration:
        Horizon over which outages start.
    churn_rate:
        Expected outages per second across the whole network.
    outage_duration:
        Length of each outage.
    """
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration!r}")
    if churn_rate < 0:
        raise ConfigError(f"churn_rate must be non-negative, got {churn_rate!r}")
    if outage_duration <= 0:
        raise ConfigError(
            f"outage_duration must be positive, got {outage_duration!r}"
        )
    nodes = list(nodes)
    if not nodes:
        raise ConfigError("need at least one node for a churn schedule")
    rng = make_rng(seed)
    schedule = FaultSchedule()
    if churn_rate == 0:
        return schedule
    now = float(rng.exponential(1.0 / churn_rate))
    while now < duration:
        victim = int(rng.choice(nodes))
        schedule.add(NodeOutage(start=now, end=now + outage_duration, node=victim))
        now += float(rng.exponential(1.0 / churn_rate))
    return schedule
