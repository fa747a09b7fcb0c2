"""Scheme registry: build any routing scheme by name.

The experiment harness and CLI construct schemes from configuration
strings; third-party schemes can be added with :func:`register_scheme`.

Built-in factories are stored as dotted paths and resolved lazily — the
Spider schemes live in :mod:`repro.core`, which itself imports routing
infrastructure, so eager imports here would be circular.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Union

from repro.errors import ConfigError
from repro.routing.base import RoutingScheme

__all__ = ["SCHEME_FACTORIES", "make_scheme", "register_scheme", "available_schemes"]

SchemeFactory = Callable[..., RoutingScheme]

#: name -> factory callable, or "module:attribute" dotted path resolved lazily.
SCHEME_FACTORIES: Dict[str, Union[str, SchemeFactory]] = {
    "shortest-path": "repro.routing.shortest_path:ShortestPathScheme",
    "max-flow": "repro.routing.max_flow:MaxFlowScheme",
    "lnd": "repro.routing.lnd:LndScheme",
    "celer": "repro.routing.backpressure:CelerScheme",
    "silentwhispers": "repro.routing.landmark:LandmarkScheme",
    "speedymurmurs": "repro.routing.embedding:SpeedyMurmursScheme",
    "spider-waterfilling": "repro.core.waterfilling:WaterfillingScheme",
    "spider-lp": "repro.core.lp_routing:SpiderLPScheme",
    "spider-primal-dual": "repro.core.primal_dual_routing:SpiderPrimalDualScheme",
    "spider-amp": "repro.core.amp:AmpWaterfillingScheme",
    "spider-queueing": "repro.core.queueing:SpiderQueueingScheme",
    "spider-window": "repro.core.window_control:WindowedSpiderScheme",
    "spider-admission": "repro.core.admission:AdmissionControlScheme",
}


def register_scheme(
    name: str, factory: Union[str, SchemeFactory], overwrite: bool = False
) -> None:
    """Add a scheme factory (callable or ``"module:attr"`` path)."""
    if name in SCHEME_FACTORIES and not overwrite:
        raise ConfigError(f"scheme {name!r} is already registered")
    SCHEME_FACTORIES[name] = factory


def available_schemes() -> List[str]:
    """Sorted scheme names."""
    return sorted(SCHEME_FACTORIES)


def _resolve(entry: Union[str, SchemeFactory]) -> SchemeFactory:
    if callable(entry):
        return entry
    module_name, _, attribute = entry.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


def make_scheme(name: str, **kwargs) -> RoutingScheme:
    """Instantiate the named scheme with constructor keyword arguments."""
    try:
        entry = SCHEME_FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {available_schemes()}"
        ) from None
    return _resolve(entry)(**kwargs)
