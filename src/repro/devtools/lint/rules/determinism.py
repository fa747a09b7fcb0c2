"""RL001 — determinism: no wall-clock or unseeded randomness in the simulation.

The evaluation's core claim (throughput/success-rate comparisons across
schemes, §6 of the paper) rests on byte-identical replay: the same seed
must produce the same metrics JSON on every run, machine and dispatch
mode.  One ``time.time()`` folded into a tick, one draw from the global
``random`` module or one ``np.random.default_rng()`` (seedless) inside
the simulation layers silently breaks that.

Scope: ``src/repro/engine``, ``src/repro/routing`` and ``src/repro/core``,
plus the generators that draw every run's randomness:
``src/repro/workload``, ``src/repro/topology`` and ``src/repro/simulator``.
Wall-clock timing belongs in benchmarks and the CLI (``time.perf_counter``
around a run is fine *there*); randomness must flow from an explicitly
seeded generator (``np.random.default_rng(seed)``, ``random.Random(seed)``)
threaded through the experiment config.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.index import LintIndex
from repro.devtools.lint.registry import rule
from repro.devtools.lint.report import Finding

__all__ = ["DeterminismRule"]

#: Module prefixes that must stay wall-clock- and global-RNG-free.
SIMULATION_PREFIXES = (
    "src/repro/engine/",
    "src/repro/routing/",
    "src/repro/core/",
    "src/repro/workload/",
    "src/repro/topology/",
    "src/repro/simulator/",
)

#: Fully-resolved callables that read the wall clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Draws from the process-global ``random`` module RNG (never seeded by
#: the experiment config, shared across every run in the process).
_GLOBAL_RANDOM = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.uniform",
    "random.gauss",
    "random.normalvariate",
    "random.expovariate",
    "random.betavariate",
    "random.paretovariate",
    "random.vonmisesvariate",
    "random.triangular",
    "random.getrandbits",
    "random.randbytes",
}

#: Legacy numpy global-state RNG (``np.random.rand`` et al. draw from the
#: hidden module-level RandomState).
_NUMPY_GLOBAL_RANDOM = {
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.random_sample",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.uniform",
    "numpy.random.normal",
    "numpy.random.exponential",
    "numpy.random.poisson",
    "numpy.random.seed",
}

#: Generator constructors that are fine seeded, hazards bare.
_SEEDABLE_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "random.Random",
}


@rule
class DeterminismRule:
    """RL001: wall-clock and unseeded randomness are banned in the
    simulation and its generators."""

    id = "RL001"
    summary = (
        "no time.time/datetime.now/global-random/seedless default_rng in "
        "engine, routing, core, workload, topology or simulator modules"
    )

    def check(self, index: LintIndex) -> Iterator[Finding]:
        for module in index.modules_matching(*SIMULATION_PREFIXES):
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = module.resolved_call_name(node)
                if resolved is None:
                    continue
                message = self._diagnose(resolved, node)
                if message is not None:
                    yield Finding(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=self.id,
                        message=message,
                    )

    @staticmethod
    def _diagnose(resolved: str, node: ast.Call) -> str | None:
        if resolved in _WALL_CLOCK:
            return (
                f"wall-clock call {resolved}() in a simulation module breaks "
                "byte-identical replay; simulated time comes from the tick "
                "engine, timing belongs in benchmarks/ or the CLI"
            )
        if resolved in _GLOBAL_RANDOM:
            return (
                f"{resolved}() draws from the process-global RNG, which no "
                "experiment seed controls; thread a seeded "
                "random.Random/Generator through the config instead"
            )
        if resolved in _NUMPY_GLOBAL_RANDOM:
            return (
                f"{resolved}() uses numpy's hidden global RandomState; use a "
                "seeded np.random.default_rng(seed) from the experiment config"
            )
        if resolved in _SEEDABLE_CONSTRUCTORS and not node.args and not node.keywords:
            return (
                f"{resolved}() without a seed gives every run different "
                "entropy; pass the experiment seed explicitly"
            )
        return None
