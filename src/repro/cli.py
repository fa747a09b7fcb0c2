"""Command-line interface.

Examples
--------
Run one scheme::

    spider-repro run --scheme spider-waterfilling --topology isp \
        --capacity 3000 --transactions 2000 --rate 100

Compare all schemes on the same trace (Fig. 6 style)::

    spider-repro compare --topology isp --capacity 3000

Sweep capacity (Fig. 7 style)::

    spider-repro sweep --capacities 1000,3000,5000,10000

Analyse a payment graph's circulation structure (Fig. 5)::

    spider-repro decompose --topology fig4

Precompute a topology's pair path sets into a reusable artifact::

    spider-repro paths precompute --topology ripple-huge --out-dir cache/paths
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import compare_schemes
from repro.fluid.circulation import decompose_payment_graph
from repro.metrics.report import format_metrics_table, format_table
from repro.routing.registry import available_schemes
from repro.topology.examples import fig4_payment_graph
from repro.workload.demand import payment_graph_from_records

__all__ = ["main", "build_parser"]

_DEFAULT_SCHEMES = [
    "spider-waterfilling",
    "spider-lp",
    "spider-primal-dual",
    "max-flow",
    "shortest-path",
    "silentwhispers",
    "speedymurmurs",
]


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="isp", help="topology spec (default: isp)")
    parser.add_argument("--capacity", type=float, default=3000.0, help="funds per channel")
    parser.add_argument(
        "--transactions", type=int, default=2000, help="trace length in payments"
    )
    parser.add_argument("--rate", type=float, default=100.0, help="arrivals per second")
    parser.add_argument("--sizes", default="isp", help="size distribution spec")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--mtu", type=float, default=None, help="max transaction unit (default: unbounded)"
    )
    parser.add_argument(
        "--policy", default="srpt", help="pending-queue scheduling policy"
    )
    parser.add_argument(
        "--path-cache-dir",
        default=None,
        help="directory for persistent path-discovery artifacts (pair "
        "path sets are loaded from and written back to it; see "
        "'paths precompute')",
    )


def _config_from_args(args: argparse.Namespace, scheme: str = "spider-waterfilling") -> ExperimentConfig:
    kwargs = dict(
        scheme=scheme,
        topology=args.topology,
        capacity=args.capacity,
        num_transactions=args.transactions,
        arrival_rate=args.rate,
        sizes=args.sizes,
        seed=args.seed,
        scheduling_policy=args.policy,
    )
    if args.mtu is not None:
        kwargs["mtu"] = args.mtu
    return ExperimentConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="spider-repro",
        description="Spider payment-channel-network routing reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scheme")
    run_parser.add_argument(
        "--scheme",
        default="spider-waterfilling",
        choices=available_schemes(),
        help="routing scheme",
    )
    run_parser.add_argument(
        "--dispatch-stats",
        action="store_true",
        help="print the engine's dispatch counters after the run: "
        "cohorts and their payments, path locks that bounced off a frozen "
        "or under-funded hop (failed_locks, atomic shares included: the "
        "non-atomic schemes offer what a path delivers after fees and do "
        "not bounce; an atomic share sized off raw balances can), and "
        "batched units and scalar fallbacks (always 0: "
        "every scheme decides through its own attempt)",
    )
    _add_common_options(run_parser)

    compare_parser = sub.add_parser("compare", help="compare schemes on one trace")
    compare_parser.add_argument(
        "--schemes",
        default=",".join(_DEFAULT_SCHEMES),
        help="comma-separated scheme names",
    )
    _add_common_options(compare_parser)

    sweep_parser = sub.add_parser("sweep", help="sweep per-channel capacity")
    sweep_parser.add_argument(
        "--capacities",
        default="1000,3000,5000,10000",
        help="comma-separated capacities",
    )
    sweep_parser.add_argument(
        "--schemes",
        default="spider-waterfilling,shortest-path",
        help="comma-separated scheme names",
    )
    sweep_parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="run sweep cells on N worker processes (identical traces "
        "across schemes per cell)",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for per-cell JSON result caching (sweep only)",
    )
    _add_common_options(sweep_parser)

    decompose_parser = sub.add_parser(
        "decompose", help="circulation/DAG decomposition of a workload's payment graph"
    )
    _add_common_options(decompose_parser)

    figures_parser = sub.add_parser(
        "figures", help="regenerate every paper figure's table into a directory"
    )
    figures_parser.add_argument("--out", default="results", help="output directory")
    figures_parser.add_argument("--seed", type=int, default=7, help="random seed")

    paths_parser = sub.add_parser(
        "paths", help="path-discovery artifacts (PathService)"
    )
    paths_sub = paths_parser.add_subparsers(dest="paths_command", required=True)
    precompute_parser = paths_sub.add_parser(
        "precompute",
        help="discover a config's trace pair path sets once and persist "
        "them for later runs and sweeps",
    )
    precompute_parser.add_argument(
        "--k", type=int, default=4, help="paths per pair (paper: 4)"
    )
    precompute_parser.add_argument(
        "--out-dir",
        required=True,
        help="artifact directory (pass the same directory as "
        "--path-cache-dir / sweep --cache-dir later)",
    )
    _add_common_options(precompute_parser)

    lint_parser = sub.add_parser(
        "lint",
        help="run repro-lint, the AST-based engine-invariant linter",
        description=(
            "Check the tree against the engine's correctness invariants: "
            "RL001 determinism, RL002 ordered iteration, RL003 "
            "store-mutation discipline and RL005 integer ticks.  "
            "Equivalent to `python -m repro.devtools.lint`."
        ),
    )
    from repro.devtools.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)

    sub.add_parser("schemes", help="list available schemes")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "schemes":
        for name in available_schemes():
            print(name)
        return 0

    if args.command == "lint":
        from repro.devtools.lint.cli import run_from_args

        return run_from_args(args)

    if args.command == "run":
        config = _config_from_args(args, scheme=args.scheme)
        session = SimulationSession.from_config(
            config, path_cache_dir=args.path_cache_dir
        )
        metrics = session.run()
        print(format_metrics_table([metrics], title=f"{args.scheme} on {args.topology}"))
        if args.dispatch_stats:
            print("dispatch stats:")
            stats = session.dispatch_stats()
            for key in sorted(stats):
                print(f"  {key:20s} {stats[key]}")
        return 0

    if args.command == "compare":
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        results = compare_schemes(
            _config_from_args(args), schemes, path_cache_dir=args.path_cache_dir
        )
        print(
            format_metrics_table(
                results,
                title=(
                    f"{args.topology}, capacity={args.capacity:g}, "
                    f"{args.transactions} transactions"
                ),
            )
        )
        return 0

    if args.command == "sweep":
        capacities = [float(c) for c in args.capacities.split(",") if c.strip()]
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        executor = SweepExecutor(
            _config_from_args(args),
            processes=max(1, args.parallel),
            cache_dir=args.cache_dir,
            path_cache_dir=args.path_cache_dir,
        )
        results = executor.parameter_sweep("capacity", capacities, schemes)
        rows = []
        for capacity in capacities:
            for scheme in schemes:
                metrics = results[(scheme, capacity)]
                rows.append(
                    [
                        f"{capacity:g}",
                        scheme,
                        f"{100 * metrics.success_ratio:.2f}",
                        f"{100 * metrics.success_volume:.2f}",
                    ]
                )
        print(
            format_table(
                ["capacity", "scheme", "success_ratio_%", "success_volume_%"],
                rows,
                title=f"capacity sweep on {args.topology}",
            )
        )
        return 0

    if args.command == "figures":
        from repro.experiments.figures import generate_all

        written = generate_all(args.out, seed=args.seed)
        for path in written:
            print(f"wrote {path}")
        return 0

    if args.command == "paths":
        # paths precompute: discover the config's trace pair sets once and
        # persist the artifact for later runs/sweeps to load.
        from repro.experiments.executor import precompute_trace_paths

        start = time.perf_counter()
        pairs, service = precompute_trace_paths(
            _config_from_args(args), args.out_dir, budgets=(args.k,)
        )
        elapsed = time.perf_counter() - start
        path_sets = service.view(args.k).paths_many(pairs)
        total_paths = sum(len(paths) for paths in path_sets)
        print(
            f"precomputed {len(pairs)} pairs ({total_paths} paths, k={args.k}) "
            f"on {args.topology} in {elapsed:.2f}s "
            f"({len(pairs) / max(elapsed, 1e-9):.0f} pairs/s) -> {args.out_dir}"
        )
        return 0

    if args.command == "decompose":
        if args.topology == "fig4":
            graph = fig4_payment_graph()
        else:
            config = _config_from_args(args)
            topology = config.build_topology()
            records = config.build_workload(list(topology.nodes))
            graph = payment_graph_from_records(records)
        decomposition = decompose_payment_graph(graph, method="lp")
        print(f"payment graph: {len(graph)} demand edges, total {graph.total_demand():.4g}")
        print(f"max circulation nu(C*): {decomposition.value:.4g}")
        print(f"DAG remainder:          {decomposition.dag_value:.4g}")
        print(f"circulation fraction:   {100 * decomposition.circulation_fraction:.2f}%")
        return 0

    return 1  # pragma: no cover - unreachable with required subparsers


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
