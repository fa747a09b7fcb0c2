"""Transaction trace generation.

Reproduces the paper's workload model (§6.1): Poisson transaction arrivals
where each transaction's *sender* is drawn from an exponential popularity
distribution over nodes, the *receiver* uniformly at random, and the size
from a Ripple-calibrated distribution.

The generator also supports the *demand rotation* extension used by the
Ripple experiments: the paper observes that Ripple's "traffic demands vary
over time", which is what defeats the one-shot Spider-LP scheme.  Setting
``rotation_interval`` re-draws the sender popularity weights every interval,
reproducing that non-stationarity synthetically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.simulator.rng import SeedLike, exponential_weights, make_rng
from repro.workload.distributions import SizeDistribution, ripple_isp_sizes

__all__ = ["TransactionRecord", "WorkloadConfig", "generate_workload"]


@dataclass(frozen=True)
class TransactionRecord:
    """One transaction in a trace: who pays whom, how much, and when.

    ``deadline`` is the absolute time by which the payment must complete;
    ``None`` means "by the end of the simulation" (the paper's setting).
    """

    txn_id: int
    arrival_time: float
    source: int
    dest: int
    amount: float
    deadline: Optional[float] = None


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload.

    Attributes
    ----------
    num_transactions:
        Trace length.  The paper uses 200 000 transactions on the ISP
        topology and 75 000 on Ripple; the benchmarks scale these down.
    arrival_rate:
        Poisson arrival rate in transactions/second across the whole
        network.
    size_distribution:
        Sampler for transaction values; defaults to the ISP-calibrated
        truncated lognormal.
    sender_exponential_scale:
        Scale of the exponential node-popularity weights for senders.
    rotation_interval:
        If set, re-draw sender weights every ``rotation_interval`` seconds
        (synthetic non-stationarity; see module docstring).
    deadline:
        Optional relative deadline (seconds after arrival) applied to every
        payment.
    seed:
        RNG seed for full determinism.
    """

    num_transactions: int
    arrival_rate: float
    size_distribution: Optional[SizeDistribution] = None
    sender_exponential_scale: float = 1.0
    rotation_interval: Optional[float] = None
    deadline: Optional[float] = None
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.num_transactions <= 0:
            raise ConfigError(
                f"num_transactions must be positive, got {self.num_transactions!r}"
            )
        if self.arrival_rate <= 0:
            raise ConfigError(f"arrival_rate must be positive, got {self.arrival_rate!r}")
        if self.rotation_interval is not None and self.rotation_interval <= 0:
            raise ConfigError(
                f"rotation_interval must be positive, got {self.rotation_interval!r}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError(f"deadline must be positive, got {self.deadline!r}")


def generate_workload(
    nodes: Sequence[int],
    config: WorkloadConfig,
) -> List[TransactionRecord]:
    """Generate a deterministic transaction trace over ``nodes``.

    Senders follow exponential popularity weights; receivers are uniform
    over the remaining nodes; inter-arrival gaps are exponential with rate
    ``config.arrival_rate`` (a Poisson process).
    """
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ConfigError("need at least two nodes to generate transactions")
    rng = make_rng(config.seed)
    sizes = config.size_distribution or ripple_isp_sizes()
    count = len(nodes)

    sender_cdf = _sender_cdf(count, config.sender_exponential_scale, rng)
    next_rotation = (
        config.rotation_interval if config.rotation_interval is not None else None
    )

    amounts = sizes.sample(rng, config.num_transactions).tolist()
    gaps = rng.exponential(
        1.0 / config.arrival_rate, size=config.num_transactions
    ).tolist()

    records: List[TransactionRecord] = []
    now = 0.0
    for txn_id in range(config.num_transactions):
        now += gaps[txn_id]
        if next_rotation is not None and now >= next_rotation:
            sender_cdf = _sender_cdf(count, config.sender_exponential_scale, rng)
            next_rotation += config.rotation_interval
        source = nodes[int(sender_cdf.searchsorted(rng.random(), side="right"))]
        dest = source
        while dest == source:
            dest = nodes[int(rng.integers(count))]
        deadline = None if config.deadline is None else now + config.deadline
        records.append(
            TransactionRecord(
                txn_id=txn_id,
                arrival_time=now,
                source=source,
                dest=dest,
                amount=amounts[txn_id],
                deadline=deadline,
            )
        )
    return records


def _sender_cdf(count: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Normalised CDF of one epoch's exponential sender popularity.

    ``cdf.searchsorted(rng.random(), side="right")`` is exactly the draw
    ``rng.choice(count, p=weights)`` makes — same cumulative sum, same
    normalisation, one uniform per draw — so the RNG stream matches a
    per-record ``choice`` while the O(count) accumulation happens once per
    rotation epoch instead of once per record.
    """
    cdf = exponential_weights(count, scale, rng).cumsum()
    cdf /= cdf[-1]
    return cdf
