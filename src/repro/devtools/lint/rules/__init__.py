"""Built-in lint rules; importing this package registers all of them.

Each module ships one rule grounded in a real engine invariant:

========  ============================  =======================================
Rule      Module                        Invariant
========  ============================  =======================================
RL001     :mod:`.determinism`           no wall-clock / unseeded RNG in the
                                        simulation layers
RL002     :mod:`.ordering`              no unordered iteration in scheduling /
                                        cohort-building modules
RL003     :mod:`.store_discipline`      store array writes pair with a
                                        version/stamp bump
RL005     :mod:`.ticks`                 no float arithmetic in schedule tick
                                        arguments
RL006     :mod:`.fork_safety`           fork-reachable code leaves process-
                                        global state alone
RL007     :mod:`.barrier_discipline`    barrier waits are timeout-guarded,
                                        ordered and crash-safe
RL008     :mod:`.lane_confinement`      fork-reachable store writes have
                                        provable row provenance
RL009     :mod:`.shm_lifecycle`         ``share()`` pairs with a finally-path
                                        ``close_shared()``
========  ============================  =======================================

RL006–RL009 are the interprocedural shard-safety tier: they read the
bounded :mod:`~repro.devtools.lint.callgraph` and the per-function
:mod:`~repro.devtools.lint.effects` summaries instead of walking single
files.
"""

from repro.devtools.lint.rules.barrier_discipline import BarrierDisciplineRule
from repro.devtools.lint.rules.determinism import DeterminismRule
from repro.devtools.lint.rules.fork_safety import ForkSafetyRule
from repro.devtools.lint.rules.lane_confinement import LaneConfinementRule
from repro.devtools.lint.rules.ordering import OrderedIterationRule
from repro.devtools.lint.rules.shm_lifecycle import ShmLifecycleRule
from repro.devtools.lint.rules.store_discipline import StoreDisciplineRule
from repro.devtools.lint.rules.ticks import IntegerTickRule

__all__ = [
    "DeterminismRule",
    "OrderedIterationRule",
    "StoreDisciplineRule",
    "IntegerTickRule",
    "ForkSafetyRule",
    "BarrierDisciplineRule",
    "LaneConfinementRule",
    "ShmLifecycleRule",
]
