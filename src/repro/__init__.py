"""repro — Spider: packet-switched routing for payment channel networks.

A from-scratch reproduction of "High Throughput Cryptocurrency Routing in
Payment Channel Networks" (Sivaraman et al., NSDI 2020; arXiv:1809.05088).

Quickstart
----------
>>> from repro import ExperimentConfig, run_experiment
>>> config = ExperimentConfig(scheme="spider-waterfilling",
...                           topology="isp", capacity=3000,
...                           num_transactions=500, arrival_rate=50)
>>> metrics = run_experiment(config)
>>> 0.0 <= metrics.success_ratio <= 1.0
True

Package map
-----------
``repro.engine``       the engine: tick clock, slab event queue,
                       array-backed channel store, SimulationSession
``repro.simulator``    seeded RNG streams
``repro.network``      payment channels, nodes, faults, the network's
                       path operations
``repro.topology``     evaluation topologies (ISP, Ripple-like, Fig. 4)
``repro.workload``     transaction traces, size distributions, demand matrices
``repro.fluid``        circulation theory, fluid LPs, primal-dual iterates
``repro.routing``      baselines: shortest-path, max-flow, SilentWhispers,
                       SpeedyMurmurs
``repro.core``         Spider: payments, scheduling, waterfilling,
                       LP routing, online primal-dual protocol
``repro.metrics``      success ratio/volume collectors and report tables
``repro.experiments``  experiment configs, runners, sweeps
"""

from repro.core import (
    Payment,
    PaymentState,
    SpiderLPScheme,
    SpiderPrimalDualScheme,
    WaterfillingScheme,
    WindowedSpiderScheme,
)
from repro.errors import (
    ChannelError,
    ConfigError,
    InsufficientFundsError,
    NoPathError,
    PaymentError,
    ReproError,
    TopologyError,
)
from repro.engine import ChannelStateStore, SimulationSession, TickEngine
from repro.engine.session import RuntimeConfig
from repro.engine.pathservice import PathService
from repro.experiments import (
    ExperimentConfig,
    SweepExecutor,
    capacity_sweep,
    compare_schemes,
    parameter_sweep,
    run_experiment,
)
from repro.fluid import (
    PaymentGraph,
    decompose_payment_graph,
    max_balanced_throughput,
    solve_fluid_lp,
)
from repro.fluid.primal_dual import solve_primal_dual
from repro.metrics import (
    ExperimentMetrics,
    IncentiveCollector,
    MetricsCollector,
    format_metrics_table,
    metrics_to_json,
)
from repro.network import (
    ChannelClosure,
    FaultSchedule,
    NodeOutage,
    PaymentChannel,
    PaymentNetwork,
    random_churn_schedule,
)
from repro.routing import (
    CelerScheme,
    LndScheme,
    available_schemes,
    make_scheme,
    register_scheme,
)
from repro.topology import Topology, fig4_topology, isp_topology, ripple_topology
from repro.workload import TransactionRecord, WorkloadConfig, generate_workload

__version__ = "1.0.0"

__all__ = [
    "CelerScheme",
    "ChannelClosure",
    "ChannelError",
    "ChannelStateStore",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentMetrics",
    "FaultSchedule",
    "IncentiveCollector",
    "InsufficientFundsError",
    "LndScheme",
    "MetricsCollector",
    "NoPathError",
    "NodeOutage",
    "PathService",
    "Payment",
    "PaymentChannel",
    "PaymentError",
    "PaymentGraph",
    "PaymentNetwork",
    "PaymentState",
    "ReproError",
    "RuntimeConfig",
    "SimulationSession",
    "SpiderLPScheme",
    "SpiderPrimalDualScheme",
    "SweepExecutor",
    "TickEngine",
    "Topology",
    "TopologyError",
    "TransactionRecord",
    "WaterfillingScheme",
    "WindowedSpiderScheme",
    "WorkloadConfig",
    "available_schemes",
    "capacity_sweep",
    "compare_schemes",
    "decompose_payment_graph",
    "fig4_topology",
    "format_metrics_table",
    "generate_workload",
    "isp_topology",
    "make_scheme",
    "max_balanced_throughput",
    "metrics_to_json",
    "parameter_sweep",
    "random_churn_schedule",
    "register_scheme",
    "ripple_topology",
    "run_experiment",
    "solve_fluid_lp",
    "solve_primal_dual",
]
