"""Experiment configuration.

One :class:`ExperimentConfig` fully determines a run: topology, per-channel
capacity, workload, scheme, and runtime parameters.  Everything is seeded,
so runs are reproducible bit-for-bit; the benchmark harness varies exactly
one axis per figure (scheme for Fig. 6, capacity for Fig. 7, and so on).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.engine.session import RuntimeConfig, check_fee_field
from repro.errors import ConfigError
from repro.simulator.rng import derive_seed
from repro.topology import (
    Topology,
    balanced_tree_topology,
    complete_topology,
    cycle_topology,
    fig4_topology,
    grid_topology,
    isp_topology,
    line_topology,
    ripple_topology,
    scale_free_topology,
    star_topology,
)
from repro.workload.distributions import (
    ConstantSize,
    ExponentialSize,
    SizeDistribution,
    ripple_full_sizes,
    ripple_isp_sizes,
)
from repro.workload.generator import Trace, WorkloadConfig, generate_workload

__all__ = ["ExperimentConfig", "build_topology", "build_size_distribution"]


def build_topology(spec: str, seed: int = 0) -> Topology:
    """Build a topology from a compact string spec.

    Supported specs: ``isp``, ``fig4``, ``ripple-<preset>``, ``line-<n>``,
    ``star-<n>``, ``cycle-<n>``, ``complete-<n>``, ``grid-<r>x<c>``,
    ``tree-<branching>x<depth>``, ``scale-free-<n>``.
    """
    if spec == "isp":
        return isp_topology()
    if spec == "fig4":
        return fig4_topology()
    match = re.fullmatch(r"ripple-(\w+)", spec)
    if match:
        return ripple_topology(match.group(1), seed=seed)
    match = re.fullmatch(r"line-(\d+)", spec)
    if match:
        return line_topology(int(match.group(1)))
    match = re.fullmatch(r"star-(\d+)", spec)
    if match:
        return star_topology(int(match.group(1)))
    match = re.fullmatch(r"cycle-(\d+)", spec)
    if match:
        return cycle_topology(int(match.group(1)))
    match = re.fullmatch(r"complete-(\d+)", spec)
    if match:
        return complete_topology(int(match.group(1)))
    match = re.fullmatch(r"grid-(\d+)x(\d+)", spec)
    if match:
        return grid_topology(int(match.group(1)), int(match.group(2)))
    match = re.fullmatch(r"tree-(\d+)x(\d+)", spec)
    if match:
        return balanced_tree_topology(int(match.group(1)), int(match.group(2)))
    match = re.fullmatch(r"scale-free-(\d+)", spec)
    if match:
        return scale_free_topology(int(match.group(1)), m=3, seed=seed)
    raise ConfigError(f"unknown topology spec {spec!r}")


def build_size_distribution(spec: str) -> SizeDistribution:
    """Build a size distribution from a string spec.

    ``isp`` and ``ripple`` are the paper-calibrated truncated lognormals;
    ``constant:<v>`` and ``exp:<mean>`` support ablations and tests.
    """
    if spec == "isp":
        return ripple_isp_sizes()
    if spec == "ripple":
        return ripple_full_sizes()
    match = re.fullmatch(r"constant:([0-9.]+)", spec)
    if match:
        return ConstantSize(float(match.group(1)))
    match = re.fullmatch(r"exp:([0-9.]+)", spec)
    if match:
        return ExponentialSize(float(match.group(1)))
    raise ConfigError(f"unknown size distribution spec {spec!r}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one simulation run.

    The defaults encode the paper's ISP setting scaled for quick runs; the
    benchmark modules document their deviations.
    """

    scheme: str = "spider-waterfilling"
    scheme_params: Dict[str, object] = field(default_factory=dict)
    topology: str = "isp"
    capacity: float = 30_000.0
    num_transactions: int = 2_000
    arrival_rate: float = 100.0
    sizes: str = "isp"
    sender_exponential_scale: float = 1.0
    rotation_interval: Optional[float] = None
    deadline: Optional[float] = None
    seed: int = 0
    confirmation_delay: float = 0.5
    poll_interval: float = 0.5
    mtu: float = math.inf
    scheduling_policy: str = "srpt"
    end_time: Optional[float] = None
    min_unit_value: float = 1e-3
    base_fee: float = 0.0
    fee_rate: float = 0.0
    max_fee_fraction: Optional[float] = None
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {self.capacity!r}")
        # The workload fields, checked by the workload's own config.
        self._workload_config()
        check_fee_field("base_fee", self.base_fee)
        check_fee_field("fee_rate", self.fee_rate)
        check_fee_field("max_fee_fraction", self.max_fee_fraction)

    # ------------------------------------------------------------------
    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with fields replaced — the sweep primitive."""
        return replace(self, **kwargs)

    def build_topology(self) -> Topology:
        """The run's topology with uniform per-channel capacity."""
        return build_topology(self.topology, seed=derive_seed(self.seed, "topology")).with_capacity(
            self.capacity
        )

    def _workload_config(
        self, size_distribution: Optional[SizeDistribution] = None, seed: int = 0
    ) -> WorkloadConfig:
        return WorkloadConfig(
            num_transactions=self.num_transactions,
            arrival_rate=self.arrival_rate,
            size_distribution=size_distribution,
            sender_exponential_scale=self.sender_exponential_scale,
            rotation_interval=self.rotation_interval,
            deadline=self.deadline,
            seed=seed,
        )

    def build_workload(self, nodes: List[int]) -> Trace:
        """The run's transaction trace (independent of the scheme)."""
        workload = self._workload_config(
            build_size_distribution(self.sizes), derive_seed(self.seed, "workload")
        )
        return generate_workload(nodes, workload)

    def build_network_and_trace(self):
        """``(network, records)``: the scheme-independent simulation
        inputs, as :meth:`build_simulation_inputs` builds them."""
        topology = self.build_topology()
        network = topology.build_network(
            default_capacity=self.capacity,
            base_fee=self.base_fee,
            fee_rate=self.fee_rate,
        )
        return network, self.build_workload(list(topology.nodes))

    def build_simulation_inputs(self):
        """``(network, records, scheme)`` exactly as a session consumes them.

        The single construction path shared by
        :meth:`repro.engine.session.SimulationSession.from_config`, the
        sweep executor's path precompute (which takes the first two, from
        :meth:`build_network_and_trace`) and the benchmarks — so
        comparisons always replay the identical network and trace.
        """
        from repro.routing.registry import make_scheme

        network, records = self.build_network_and_trace()
        return network, records, make_scheme(self.scheme, **self.scheme_params)

    def build_runtime_config(self) -> RuntimeConfig:
        """The runtime parameters of this experiment."""
        return RuntimeConfig(
            confirmation_delay=self.confirmation_delay,
            poll_interval=self.poll_interval,
            mtu=self.mtu,
            scheduling_policy=self.scheduling_policy,
            end_time=self.end_time,
            min_unit_value=self.min_unit_value,
            max_fee_fraction=self.max_fee_fraction,
            check_invariants=self.check_invariants,
        )
