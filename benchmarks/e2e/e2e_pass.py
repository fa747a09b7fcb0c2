"""One benchmark pass, in a process of its own.

``run.py`` launches ``python e2e_pass.py '<request json>'`` once per
pass, so every pass starts with cold process-wide caches, its own peak
RSS and nothing left over from the pass before.  The pass takes the path
a user takes — ``SimulationSession.from_config`` → ``prepare`` → ``run``
→ ``metrics_to_json`` — and prints one JSON object: stage walls (raw, and
in reference loops: see ``e2e_hostspeed``), peak RSS, the SHA-256 of the
metrics JSON, the simulated success figures and, on a traced pass, the
folded spans.

Request fields: ``config`` (``ExperimentConfig`` keyword arguments),
``traced`` (install the class-level wrappers of ``e2e_spec.WRAPS`` on top
of the host-speed marks every pass carries),
``path_cache_dir`` (or ``None``) and ``discover_only`` (stop after
``prepare``: the untimed pass that fills ``path_cache_dir``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from e2e_hostspeed import MARKS, HostSpeed
from e2e_spans import SpanRecorder
from e2e_spec import WRAPS

__all__ = ["install_wrappers", "run_pass"]

SRC = Path(__file__).resolve().parents[2] / "src"


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _first_len(args: tuple, kwargs: dict) -> int:
    """Length of a wrapped call's first argument after ``self``."""
    return len(args[1])


def install_wrappers(recorder: SpanRecorder, scheme_name: str) -> None:
    """Wrap the layers' public methods at class level.

    Must run before the session is built: ``TickEngine.every`` and the
    dispatch plan bind methods when objects are constructed, and a
    wrapper installed later would miss those calls.
    """
    for wrap in WRAPS:
        owner = getattr(importlib.import_module(wrap.module), wrap.owner)
        recorder.wrap(
            owner, wrap.method, wrap.span, _first_len if wrap.units else None
        )
    from repro.metrics.collectors import MetricsCollector
    from repro.routing.registry import make_scheme

    for attribute in vars(MetricsCollector):
        if attribute.startswith("on_"):
            recorder.wrap(MetricsCollector, attribute, "metrics.collector")
    # A scheme's prepare/attempt may chain to its bases: wrap each class
    # that defines one (self time is exact under same-name nesting).
    for klass in type(make_scheme(scheme_name)).__mro__:
        for attribute in ("prepare", "attempt"):
            if attribute in vars(klass):
                recorder.wrap(klass, attribute, f"scheme.{attribute}")


def run_pass(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one pass in this process and return its result object."""
    imported = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.engine.pathservice import PersistentCache
    from repro.engine.session import SimulationSession
    from repro.experiments.config import ExperimentConfig
    from repro.metrics import metrics_to_json

    import_s = time.perf_counter() - imported
    config = ExperimentConfig(**request["config"])
    cache_dir: Optional[str] = request.get("path_cache_dir")
    # The reference loop's table is the harness's memory, not the program's.
    rss_before_mb = _max_rss_mb()
    speed = HostSpeed(time.perf_counter)
    harness_rss_mb = _max_rss_mb() - rss_before_mb
    # Spans run on a clock that stands still while the reference loop runs.
    recorder = SpanRecorder(lambda: time.perf_counter() - speed.loop_time_s)
    #: Stage walls: raw seconds (reference loops excluded) and loops.
    raw: Dict[str, float] = {}
    loops: Dict[str, float] = {}

    @contextmanager
    def stage(name: str) -> Iterator[None]:
        speed.mark()
        speed.take()
        with recorder.span(f"stage.{name}"):
            yield
        speed.mark()
        raw[f"{name}_s"], loops[f"{name}_s"] = speed.take()

    if request.get("traced"):
        install_wrappers(recorder, config.scheme)
    for module, owner, method in MARKS:
        speed.watch(getattr(importlib.import_module(module), owner), method)
    try:
        PersistentCache.clear_shared()
        with stage("build"):
            session = SimulationSession.from_config(config, path_cache_dir=cache_dir)
        with stage("prepare"):
            session.prepare()
        if request.get("discover_only"):
            return {"ok": True}  # prepare() has flushed the prefetched pairs
        with stage("run"):
            metrics = session.run()
        with stage("finalize"), recorder.span("metrics.to_json"):
            text = metrics_to_json(metrics)
    finally:
        speed.unwrap_all()  # installed last, so removed first
        recorder.unwrap_all()
    session.network.check_invariants()

    rows = recorder.rows
    control = session.network.peek_control_plane()
    counters = {
        "network.channels": session.network.num_channels,
        "workload.records": len(session.records),
        "events.processed": session.events_processed,
        "transport.max_queue_depth": metrics.max_queue_depth,
        "transport.mean_queue_depth": metrics.mean_queue_depth,
        "signals.mark_rate": control.mark_rate() if control is not None else 0.0,
    }
    counters.update(
        {f"dispatch.{key}": value for key, value in session.dispatch_stats().items()}
    )
    return {
        "ok": True,
        "stages": {"import_s": import_s, **raw},
        "stages_loops": loops,
        "peak_rss_mb": _max_rss_mb() - harness_rss_mb,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "success_ratio": metrics.success_ratio,
        "success_volume": metrics.success_volume,
        "counters": counters,
        "spans": {
            name: {
                "calls": row.calls,
                "units": row.units,
                "total_s": row.total_s,
                "self_s": row.self_s,
            }
            for name, row in rows.items()
        },
    }


def main(argv: list) -> int:
    """Child entry point: one request in, one JSON line out."""
    try:
        result = run_pass(json.loads(argv[1]))
    except Exception as exc:  # boundary: report the failure, keep the reason
        traceback.print_exc()
        result = {"ok": False, "reason": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
