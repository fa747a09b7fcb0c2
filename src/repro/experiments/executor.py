"""Parameter-sweep execution: the one way to run a grid of cells.

The paper's figures are grids of independent simulation cells (scheme ×
capacity, scheme × fee rate, ...).  :class:`SweepExecutor` runs them
serially in-process or across worker processes, with:

* **one seed for the whole grid** — every cell runs at the base config's
  seed, so schemes and swept values compare on identical traces (as
  Fig. 7 needs) and a sweep gives byte-identical results whether it runs
  on 1 process or 16, in any completion order;
* **JSON result caching** — each finished cell is written to
  ``cache_dir/<sha256-of-config>.json``; re-running a sweep (or extending
  it with more values) only simulates the missing cells.

Cells execute through :func:`repro.experiments.runner.run_experiment`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.collectors import ExperimentMetrics

__all__ = [
    "SweepCell",
    "SweepCellError",
    "SweepExecutor",
    "precompute_trace_paths",
]


class SweepCellError(RuntimeError):
    """A sweep cell failed; carries the owning cell's identity.

    Raised by :meth:`SweepExecutor.run_cells` instead of letting the
    worker pool surface a bare pickled traceback: the message names the
    cell (scheme, swept field/value, seed) so a failing 200-cell sweep
    points at the one configuration to reproduce, and the worker's
    traceback rides along verbatim.
    """

    def __init__(self, cell: SweepCell, error: str, traceback_text: str):
        self.cell = cell
        self.error = error
        self.traceback_text = traceback_text
        super().__init__(
            f"sweep cell #{cell.index} failed "
            f"(scheme={cell.scheme!r}, {cell.field}={cell.value!r}, "
            f"seed={cell.config.seed}): {error}\n"
            f"--- worker traceback ---\n{traceback_text}"
        )


def precompute_trace_paths(
    config: ExperimentConfig,
    cache_dir: str,
    budgets: Sequence[int] = (4,),
):
    """Discover a config's trace pair path sets once and persist them.

    Builds the config's network and trace through
    :meth:`ExperimentConfig.build_simulation_inputs` (so the trace pairs
    match what a real run will ask for), then batch-discovers each ``k``
    in ``budgets`` through the network's
    :class:`~repro.engine.pathservice.PathService` and writes the
    artifacts to ``cache_dir``.  Shared by
    :meth:`SweepExecutor.run_cells`'s parent-side precompute and the
    ``spider-repro paths precompute`` CLI.  Returns ``(pairs, service)``.
    """
    network, trace, _ = config.build_simulation_inputs()
    first, _ = trace.pair_groups()  # one row per pair, in sorted pair order
    pairs = list(zip(trace.source[first].tolist(), trace.dest[first].tolist()))
    service = network.path_service
    service.persist_to(cache_dir)
    for k in sorted({int(k) for k in budgets}):
        service.view(k).prepare(pairs)
    return pairs, service


@dataclass(frozen=True)
class SweepCell:
    """One fully resolved simulation of a sweep grid."""

    index: int
    scheme: str
    field: str
    value: object
    config: ExperimentConfig


#: Bumped whenever engine or metrics semantics, or the key layout below,
#: change, so cached results computed by older code are recomputed rather
#: than silently served.
_CACHE_SCHEMA_VERSION = 3


def _config_fingerprint(config: ExperimentConfig) -> str:
    """Stable cache key: sha256 of the canonical config JSON + schema tag."""
    payload = dataclasses.asdict(config)
    payload["__schema__"] = _CACHE_SCHEMA_VERSION
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_cell(
    payload: Tuple[int, ExperimentConfig, Optional[str]]
) -> Tuple[int, Dict[str, object]]:
    """Worker entry point: run one cell, return ``(index, metrics dict)``.

    Failures are returned as an ``{"__error__": ..., "__traceback__": ...}``
    payload rather than raised: a raise inside ``Pool.map`` surfaces as a
    re-pickled traceback with no indication of *which* cell died, so the
    parent converts these payloads to :class:`SweepCellError` with the
    owning cell's identity attached.
    """
    index, config, path_cache_dir = payload
    try:
        from repro.experiments.runner import run_experiment

        metrics = run_experiment(config, path_cache_dir=path_cache_dir)
        return index, metrics.to_dict()
    except Exception as exc:
        import traceback

        return index, {
            "__error__": f"{type(exc).__name__}: {exc}",
            "__traceback__": traceback.format_exc(),
        }


class SweepExecutor:
    """Runs a sweep grid's cells, in-process or in worker processes,
    with result caching.

    Parameters
    ----------
    base_config:
        The sweep's shared configuration; each cell overrides one field
        plus the scheme and keeps the base seed.
    processes:
        Worker process count.  ``None`` uses ``os.cpu_count()``; values
        ``<= 1`` run serially in-process (handy under debuggers and in
        tests — results are identical by construction).
    cache_dir:
        Directory for per-cell JSON results.  ``None`` disables caching.
    path_cache_dir:
        Directory for persistent path-discovery artifacts (see
        :class:`~repro.engine.pathservice.PersistentCache`).  Defaults to
        ``<cache_dir>/paths`` when ``cache_dir`` is set.  Before cells are
        dispatched the executor batch-discovers each distinct topology's
        trace pair sets once in the parent process, so workers load
        discovery from disk instead of recomputing it per cell.
    """

    def __init__(
        self,
        base_config: ExperimentConfig,
        processes: Optional[int] = None,
        cache_dir: Optional[str] = None,
        path_cache_dir: Optional[str] = None,
    ):
        self.base_config = base_config
        self.processes = os.cpu_count() or 1 if processes is None else int(processes)
        self.cache_dir = cache_dir
        if path_cache_dir is None and cache_dir is not None:
            path_cache_dir = os.path.join(cache_dir, "paths")
        self.path_cache_dir = path_cache_dir
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # Grid construction
    # ------------------------------------------------------------------
    def cells(
        self, field: str, values: Sequence[object], schemes: Sequence[str]
    ) -> List[SweepCell]:
        """The fully resolved ``values × schemes`` cell grid, in row-major
        order, every cell at the base config's seed."""
        grid: List[SweepCell] = []
        for value in values:
            for scheme in schemes:
                config = self.base_config.with_overrides(
                    **{field: value}, scheme=scheme
                )
                grid.append(SweepCell(len(grid), scheme, field, value, config))
        return grid

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[SweepCell]) -> List[ExperimentMetrics]:
        """Run ``cells``, returning metrics in cell order.

        Cached cells are loaded without simulating; the rest are distributed
        over the worker pool (completion order never affects results).
        A failing cell raises :class:`SweepCellError` naming the cell —
        scheme, swept field/value, seed — with the worker's traceback
        attached; when several cells fail, the lowest-index failure is
        raised (deterministic regardless of completion order).
        """
        by_index: Dict[int, SweepCell] = {cell.index: cell for cell in cells}
        results: Dict[int, ExperimentMetrics] = {}
        todo: List[Tuple[int, ExperimentConfig, Optional[str]]] = []
        keys: Dict[int, str] = {}
        for cell in cells:
            key = _config_fingerprint(cell.config)
            keys[cell.index] = key
            cached = self._cache_load(key)
            if cached is not None:
                self.cache_hits += 1
                results[cell.index] = cached
            else:
                self.cache_misses += 1
                todo.append((cell.index, cell.config, self.path_cache_dir))

        if todo and self.path_cache_dir is not None:
            self._precompute_paths([config for _, config, _ in todo])
        if todo:
            if self.processes <= 1 or len(todo) == 1:
                finished = [_run_cell(payload) for payload in todo]
            else:
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"
                )
                with ctx.Pool(min(self.processes, len(todo))) as pool:
                    finished = pool.map(_run_cell, todo)
            failures = sorted(
                (index, payload)
                for index, payload in finished
                if "__error__" in payload
            )
            if failures:
                index, payload = failures[0]
                raise SweepCellError(
                    by_index[index],
                    str(payload["__error__"]),
                    str(payload.get("__traceback__", "")),
                )
            for index, payload in finished:
                metrics = ExperimentMetrics.from_dict(payload)
                results[index] = metrics
                self._cache_store(keys[index], payload)
        return [results[cell.index] for cell in cells]

    def parameter_sweep(
        self, field: str, values: Sequence[object], schemes: Sequence[str]
    ) -> Dict[Tuple[str, object], ExperimentMetrics]:
        """Run ``schemes × values`` over one config field.

        Returns ``{(scheme, value): metrics}``.
        """
        grid = self.cells(field, values, schemes)
        metrics = self.run_cells(grid)
        return {
            (cell.scheme, cell.value): result for cell, result in zip(grid, metrics)
        }

    # ------------------------------------------------------------------
    # Path-discovery precompute
    # ------------------------------------------------------------------
    def _precompute_paths(self, configs: Sequence[ExperimentConfig]) -> None:
        """Discover each distinct topology's trace pair sets once.

        Cells sharing topology and workload parameters (a capacity sweep,
        multiple schemes on one trace) resolve to one batched discovery
        pass whose artifact every worker then loads from
        ``path_cache_dir``.  Only schemes with a ``num_paths`` budget
        (the k edge-disjoint family) are precomputable; other schemes
        discover lazily in the worker as before.
        """
        from repro.routing.registry import make_scheme

        groups: Dict[Tuple, List[ExperimentConfig]] = {}
        for config in configs:
            key = (
                config.topology,
                config.seed,
                config.num_transactions,
                config.arrival_rate,
                config.sizes,
                config.sender_exponential_scale,
                config.rotation_interval,
                config.deadline,
            )
            groups.setdefault(key, []).append(config)
        for members in groups.values():
            budgets = set()
            for config in members:
                scheme = make_scheme(config.scheme, **config.scheme_params)
                num_paths = getattr(scheme, "num_paths", None)
                if num_paths is not None:
                    budgets.add(int(num_paths))
            if not budgets:
                continue
            precompute_trace_paths(
                members[0], self.path_cache_dir, budgets=budgets
            )

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_load(self, key: str) -> Optional[ExperimentMetrics]:
        path = self._cache_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return ExperimentMetrics.from_dict(payload["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # unreadable cache entries are simply recomputed

    def _cache_store(self, key: str, metrics_payload: Dict[str, object]) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"metrics": metrics_payload}, handle, sort_keys=True)
        os.replace(tmp, path)
