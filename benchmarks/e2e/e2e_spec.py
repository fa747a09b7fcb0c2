"""What the end-to-end benchmark runs and reports — data only.

Imported by the parent (``run.py``), the per-pass child (``e2e_pass.py``)
and the tests; it imports nothing from ``repro`` so the parent never pays
for (or perturbs) the program's import.  ``BENCHMARK.json`` at the repo
root is ``manifest()`` written out; the test keeps the two equal.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

__all__ = [
    "COMMAND",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "SMOKE_DIVISOR",
    "SPAN_UNITS",
    "WORKLOADS",
    "WRAPS",
    "manifest",
    "workload_config",
]

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: Time budget of one driver run (``--seconds``).  Passes are 11-15 s on
#: the 2-core sizing host, so 30 s fits two timed passes of the three
#: workloads without a warm-up and one of ``ripple-full-fees-warm``.
RUN_SECONDS = 30

#: ``--smoke`` divides every trace length by this.
SMOKE_DIVISOR = 50

#: Shared by every workload.  ``deadline=5`` is the paper's payment
#: timeout; it keeps the pending set bounded, so run time is linear in the
#: trace length.  ``rotation_interval=1`` re-draws the sender popularity
#: every simulated second: with a single draw per run the ISP success
#: ratio swings 0.54-0.72 from seed to seed (and wall time with it), which
#: no bound could resolve; a run that averages over its own draws repeats
#: within 1 % across seeds.
_COMMON = {
    "arrival_rate": 1000.0,
    "deadline": 5.0,
    "rotation_interval": 1.0,
}


class Workload(NamedTuple):
    """One named input set: ``ExperimentConfig`` fields plus its reason."""

    why: str
    config: Dict[str, object]
    #: Fill ``path_cache_dir`` with one untimed discovery pass first.
    warm_paths: bool = False


WORKLOADS: Dict[str, Workload] = {
    "isp-waterfilling": Workload(
        why=(
            "32 nodes, 100k txns: every pair is cache-hot, so the run loop "
            "(dispatch cohorts, probes, lock/settle, events) dominates"
        ),
        config={
            "scheme": "spider-waterfilling",
            "topology": "isp",
            "num_transactions": 100_000,
            "capacity": 4000.0,
            "sizes": "isp",
        },
    ),
    "isp-window": Workload(
        why=(
            "same graph and load, paper's windowed protocol: units travel hop "
            "by hop, adding transport queues, mark scans and window control"
        ),
        config={
            "scheme": "spider-window",
            "topology": "isp",
            "num_transactions": 60_000,
            "capacity": 4000.0,
            "sizes": "isp",
        },
    ),
    "ripple-huge-cold": Workload(
        why=(
            "10k nodes, cold path cache: almost every pair is new, so path "
            "discovery and network build dominate; largest store, owns peak RSS"
        ),
        config={
            "scheme": "spider-waterfilling",
            "topology": "ripple-huge",
            "num_transactions": 4_000,
            "capacity": 500.0,
        },
    ),
    "ripple-full-fees-warm": Workload(
        why=(
            "paper's 3774-node graph with fees, paths served from disk "
            "artifacts: the sweep-cell case, and the fee-bearing dispatch rule"
        ),
        config={
            "scheme": "spider-waterfilling",
            "topology": "ripple-full",
            "num_transactions": 20_000,
            "capacity": 500.0,
            "sizes": "ripple",
            "base_fee": 0.01,
            "fee_rate": 0.001,
            "max_fee_fraction": 0.25,
        },
        warm_paths=True,
    ),
}


def workload_config(name: str, seed: int, smoke: bool = False) -> Dict[str, object]:
    """Keyword arguments of the workload's ``ExperimentConfig``.

    The seed reaches the program only through the ``seed`` field.
    """
    config = dict(_COMMON)
    config.update(WORKLOADS[name].config)
    config["seed"] = seed
    if smoke:
        config["num_transactions"] = int(config["num_transactions"]) // SMOKE_DIVISOR
    return config


class EndToEnd(NamedTuple):
    """A metric a user of the simulator sees, with its regression bound."""

    name: str
    unit: str
    better: str
    bound: float


#: Bounds are sized from ten driver-form runs on ten seeds (README,
#: "Reference rows").  Host-speed corrected timings spread 2-4 % across
#: seeds on a calm host and 5-11 % while the host ran 1.5-2.2x slow (raw
#: walls: 23-32 %); 0.20 is about twice the worst and three times the
#: usual.  ``setup_s`` rests on the fewest marks and gets the ceiling.
END_TO_END: List[EndToEnd] = [
    # from_config + prepare + run + metrics_to_json: what one run costs
    EndToEnd("wall_s", "s", "lower", 0.20),
    # num_transactions / wall_s, the ROADMAP's whole-run figure
    EndToEnd("txn_per_s", "txn/s", "higher", 0.20),
    # from_config + prepare, so work moved into set-up shows
    EndToEnd("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the pass's own process
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    # simulated (payments completed / offered, value delivered / offered);
    # identical in every pass of one seed
    EndToEnd("success_ratio", "fraction", "higher", 0.10),
    EndToEnd("success_volume", "fraction", "higher", 0.10),
]


class Wrap(NamedTuple):
    """One public method the traced pass wraps at class level."""

    module: str
    owner: str
    method: str
    span: str
    #: Name of the per-call work count (length of the first argument).
    units: Optional[str] = None


#: Span name -> the public methods folded into it.  Schemes'
#: ``prepare``/``attempt`` (spans ``scheme.prepare``/``scheme.attempt``)
#: and every ``MetricsCollector.on_*`` (span ``metrics.collector``) are
#: resolved by the child, since they depend on the scheme and on the
#: collector's hook list.
WRAPS: List[Wrap] = [
    Wrap("repro.experiments.config", "ExperimentConfig", "build_topology", "topology.build"),
    Wrap("repro.topology.base", "Topology", "build_network", "network.build"),
    Wrap("repro.experiments.config", "ExperimentConfig", "build_workload", "workload.generate"),
    # engine.pathservice: every request for pair path sets, and the part
    # of them that reaches the discovery kernel.
    Wrap("repro.engine.pathservice", "PersistentCache", "prepare", "pathservice.request", "pairs"),
    Wrap("repro.engine.pathservice", "PersistentCache", "paths_many", "pathservice.request", "pairs"),
    Wrap("repro.engine.pathservice", "PersistentCache", "paths", "pathservice.lookup"),
    Wrap("repro.engine.pathservice", "CsrDisjointProvider", "paths", "pathservice.discover"),
    Wrap("repro.engine.pathservice", "CsrGraph", "from_adjacency", "pathservice.graph"),
    Wrap("repro.engine.pathservice", "PersistentCache", "persist_to", "pathservice.load"),
    Wrap("repro.engine.pathservice", "PersistentCache", "flush", "pathservice.flush"),
    # engine.pathtable
    Wrap("repro.engine.pathtable", "PathTable", "compile", "pathtable.compile"),
    Wrap("repro.engine.pathtable", "PathTable", "probe_handle", "pathtable.probe_handle"),
    Wrap("repro.engine.pathtable", "PathTable", "refresh_probes", "pathtable.refresh_probes", "probes"),
    Wrap("repro.engine.pathtable", "PathTable", "bottleneck_many", "pathtable.bottleneck_many", "paths"),
    Wrap("repro.engine.pathtable", "PathTable", "bottleneck", "pathtable.bottleneck"),
    Wrap("repro.engine.pathtable", "PathTable", "lock_path", "pathtable.lock_path"),
    Wrap("repro.engine.pathtable", "CompiledPath", "hop_amounts", "pathtable.hop_amounts"),
    # engine.store
    Wrap("repro.engine.store", "ChannelStateStore", "lock_many", "store.lock_many", "rows"),
    Wrap("repro.engine.store", "ChannelStateStore", "lock_path_funds", "store.lock_path_funds"),
    Wrap("repro.engine.store", "ChannelStateStore", "try_lock", "store.try_lock"),
    Wrap("repro.engine.store", "ChannelStateStore", "apply_resolution_batch",
         "store.apply_resolution_batch", "rows"),
    Wrap("repro.engine.store", "ChannelStateStore", "settle_path_funds", "store.settle_path_funds"),
    Wrap("repro.engine.store", "ChannelStateStore", "refund_path_funds", "store.refund_path_funds"),
    # engine.dispatch
    Wrap("repro.engine.dispatch", "DispatchPlan", "attempt_cohort", "dispatch.attempt_cohort", "payments"),
    Wrap("repro.engine.dispatch", "DispatchPlan", "prime", "dispatch.prime"),
    # engine.transport
    Wrap("repro.engine.transport", "HopByHopTransport", "send_unit_hop_by_hop", "transport.send_unit"),
    Wrap("repro.engine.transport", "HopByHopTransport", "advance_many", "transport.advance_many", "units"),
    # engine.signals
    Wrap("repro.engine.signals", "ControlPlane", "observe_service", "signals.observe_service"),
    Wrap("repro.engine.signals", "ControlPlane", "tick", "signals.tick"),
    # engine.events
    Wrap("repro.engine.events", "TickEngine", "run", "events.run"),
    Wrap("repro.engine.events", "TickEngine", "schedule_many", "events.schedule_many"),
    # metrics
    Wrap("repro.metrics.collectors", "MetricsCollector", "finalize", "metrics.finalize"),
]


#: Every span name a traced pass can produce -> the name of its per-call
#: work count (``None`` if it carries none).
SPAN_UNITS: Dict[str, Optional[str]] = {
    **{wrap.span: None for wrap in WRAPS},
    **{wrap.span: wrap.units for wrap in WRAPS if wrap.units},
    "scheme.prepare": None,
    "scheme.attempt": None,
    "metrics.collector": None,
    "metrics.to_json": None,
}


class Layer(NamedTuple):
    """A single-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    #: ``"<end-to-end metric> on <workload>[, <workload>...]"``.
    moves: str


_ISP = "isp-waterfilling, isp-window"
_RUN_LOOP = "isp-waterfilling, isp-window, ripple-full-fees-warm"
_RIPPLE = "ripple-huge-cold, ripple-full-fees-warm"


def _span(name: str, moves: str, units: Optional[str] = None, calls: bool = True) -> List[Layer]:
    rows = []
    if calls:
        rows.append(Layer(f"{name}.calls", "count", "lower", moves))
    if units:
        rows.append(Layer(f"{name}.{units}", "count", "lower", moves))
    rows.append(Layer(f"{name}.self_s", "s", "lower", moves))
    return rows


PER_LAYER: List[Layer] = [
    # Stage walls (also recorded in every timed pass).
    Layer("stage.import_s", "s", "lower", "none: page cache, reported only"),
    Layer("stage.build_s", "s", "lower", f"setup_s on {_RIPPLE}"),
    Layer("stage.prepare_s", "s", "lower", f"setup_s on {_RIPPLE}"),
    Layer("stage.run_s", "s", "lower", f"txn_per_s on {_RUN_LOOP}"),
    Layer("stage.finalize_s", "s", "lower", "wall_s on isp-waterfilling"),
    # topology / network / workload
    *_span("topology.build", "setup_s on ripple-huge-cold", calls=False),
    *_span("network.build", "setup_s on ripple-huge-cold", calls=False),
    Layer("network.channels", "count", "higher", "none: input size"),
    *_span("workload.generate", "setup_s on isp-waterfilling", calls=False),
    Layer("workload.records", "count", "higher", "none: input size"),
    # engine.pathservice
    *_span("pathservice.request", f"setup_s on {_RIPPLE}", units="pairs"),
    *_span("pathservice.lookup", f"txn_per_s on {_RUN_LOOP}"),
    Layer("pathservice.discover.pairs", "count", "lower", "setup_s on ripple-huge-cold"),
    Layer("pathservice.discover.self_s", "s", "lower", "setup_s on ripple-huge-cold"),
    Layer("pathservice.hit_ratio", "fraction", "higher", "setup_s on ripple-full-fees-warm"),
    *_span("pathservice.graph", f"setup_s on {_RIPPLE}", calls=False),
    *_span("pathservice.load", "setup_s on ripple-full-fees-warm", calls=False),
    *_span("pathservice.flush", "setup_s on ripple-huge-cold", calls=False),
    # engine.pathtable
    *_span("pathtable.compile", f"setup_s on {_RIPPLE}"),
    *_span("pathtable.probe_handle", f"setup_s on {_RIPPLE}"),
    *_span("pathtable.refresh_probes", f"txn_per_s on {_RUN_LOOP}", units="probes"),
    *_span("pathtable.bottleneck_many", "txn_per_s on isp-waterfilling", units="paths"),
    *_span("pathtable.bottleneck", "txn_per_s on isp-waterfilling"),
    *_span("pathtable.lock_path", "txn_per_s on isp-waterfilling"),
    *_span("pathtable.hop_amounts", "txn_per_s on ripple-full-fees-warm"),
    # engine.store
    *_span("store.lock_many", f"txn_per_s on {_ISP}", units="rows"),
    *_span("store.lock_path_funds", "txn_per_s on isp-waterfilling"),
    *_span("store.try_lock", "txn_per_s on isp-window"),
    *_span("store.apply_resolution_batch", f"txn_per_s on {_ISP}", units="rows"),
    *_span("store.settle_path_funds", f"txn_per_s on {_ISP}"),
    *_span("store.refund_path_funds", f"txn_per_s on {_ISP}"),
    # engine.dispatch
    *_span("dispatch.attempt_cohort", f"txn_per_s on {_RUN_LOOP}", units="payments"),
    *_span("dispatch.prime", f"setup_s on {_RIPPLE}", calls=False),
    Layer("dispatch.batched_units", "count", "higher", f"txn_per_s on {_RUN_LOOP}"),
    Layer("dispatch.scalar_fallbacks", "count", "lower", f"txn_per_s on {_RUN_LOOP}"),
    Layer("dispatch.fallback_ratio", "fraction", "lower", f"txn_per_s on {_RUN_LOOP}"),
    Layer("dispatch.attempts_per_txn", "1/txn", "lower", f"txn_per_s on {_RUN_LOOP}"),
    # engine.transport
    *_span("transport.send_unit", "txn_per_s on isp-window"),
    *_span("transport.advance_many", "txn_per_s on isp-window", units="units"),
    Layer("transport.max_queue_depth", "count", "lower", "txn_per_s on isp-window"),
    Layer("transport.mean_queue_depth", "count", "lower", "txn_per_s on isp-window"),
    # engine.signals
    *_span("signals.observe_service", "txn_per_s on isp-window"),
    *_span("signals.tick", "txn_per_s on isp-window"),
    Layer("signals.mark_rate", "fraction", "lower", "txn_per_s on isp-window"),
    # engine.events / engine.session
    Layer("events.processed", "count", "lower", f"txn_per_s on {_ISP}"),
    Layer("events.schedule_many.calls", "count", "lower", f"setup_s on {_ISP}"),
    Layer("events.run.self_s", "s", "lower", f"txn_per_s on {_ISP}"),
    Layer("events.us_per_event", "us", "lower", f"txn_per_s on {_ISP}"),
    # core schemes
    *_span("scheme.prepare", f"setup_s on {_RIPPLE}", calls=False),
    *_span("scheme.attempt", f"txn_per_s on {_RUN_LOOP}"),
    # metrics
    *_span("metrics.collector", "wall_s on isp-waterfilling"),
    *_span("metrics.finalize", "wall_s on isp-waterfilling", calls=False),
    *_span("metrics.to_json", "wall_s on isp-waterfilling", calls=False),
    # the host, as the untraced passes saw it (e2e_hostspeed)
    Layer("host.slowdown", "ratio", "lower", "none: raw wall_s / corrected wall_s"),
    # trace health
    Layer("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s / untraced median"),
    Layer("trace.coverage", "fraction", "higher", "none: share of prepare+run in a named span"),
]


def manifest() -> Dict[str, object]:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workload.why} for name, workload in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
