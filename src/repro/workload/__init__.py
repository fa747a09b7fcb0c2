"""Workload substrate: sizes, arrivals, demand matrices, traces."""

from repro.workload.demand import (
    circulation_demand,
    dag_demand,
    estimate_demand_matrix,
    mixed_demand,
    payment_graph_from_records,
    records_from_demand,
    rotating_records_from_demand,
)
from repro.workload.distributions import (
    ConstantSize,
    EmpiricalSize,
    ExponentialSize,
    SizeDistribution,
    TruncatedLognormalSize,
    UniformSize,
    ripple_full_sizes,
    ripple_isp_sizes,
)
from repro.workload.generator import Trace, TransactionRecord, WorkloadConfig, generate_workload

__all__ = [
    "ConstantSize",
    "EmpiricalSize",
    "ExponentialSize",
    "SizeDistribution",
    "Trace",
    "TransactionRecord",
    "TruncatedLognormalSize",
    "UniformSize",
    "WorkloadConfig",
    "circulation_demand",
    "dag_demand",
    "estimate_demand_matrix",
    "generate_workload",
    "mixed_demand",
    "payment_graph_from_records",
    "records_from_demand",
    "ripple_full_sizes",
    "ripple_isp_sizes",
    "rotating_records_from_demand",
]
