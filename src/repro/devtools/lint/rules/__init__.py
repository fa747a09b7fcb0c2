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
                                        version bump
RL005     :mod:`.ticks`                 no float arithmetic in schedule tick
                                        arguments
RL010     :mod:`.artifacts`             ``np.load`` passes
                                        ``allow_pickle=False`` literally
========  ============================  =======================================
"""

from repro.devtools.lint.rules.artifacts import NoPickleLoadRule
from repro.devtools.lint.rules.determinism import DeterminismRule
from repro.devtools.lint.rules.ordering import OrderedIterationRule
from repro.devtools.lint.rules.store_discipline import StoreDisciplineRule
from repro.devtools.lint.rules.ticks import IntegerTickRule

__all__ = [
    "DeterminismRule",
    "OrderedIterationRule",
    "StoreDisciplineRule",
    "IntegerTickRule",
    "NoPickleLoadRule",
]
