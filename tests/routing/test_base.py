"""Tests for the routing scheme base class contract."""

from __future__ import annotations

import pytest

from repro.engine.session import SimulationSession
from repro.engine.transport import _TRANSPORTS
from repro.errors import ConfigError
from repro.routing.base import RoutingScheme
from repro.routing.registry import available_schemes, make_scheme
from repro.topology.isp import isp_topology
from repro.workload.generator import TransactionRecord


class NullScheme(RoutingScheme):
    """Declares nothing and never sends."""

    name = "test-null"

    def attempt(self, payment, runtime):
        return None


class BudgetScheme(NullScheme):
    """Declares a per-pair path budget, so the default prepare binds a view."""

    name = "test-budget"

    def __init__(self, num_paths: int):
        self.num_paths = num_paths


def _session(scheme, network=None):
    network = network or isp_topology().build_network(default_capacity=100.0)
    records = [TransactionRecord(0, 0.0, 8, 20, 1.0, None)]
    return SimulationSession(network, records, scheme)


class TestRoutingSchemeContract:
    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            RoutingScheme()

    def test_subclass_without_attempt_is_abstract(self):
        class NoAttempt(RoutingScheme):
            name = "no-attempt"

        with pytest.raises(TypeError):
            NoAttempt()

    def test_default_declarations(self):
        scheme = NullScheme()
        assert RoutingScheme.name == "base"
        assert scheme.atomic is False
        assert scheme.transport is None

    def test_prepare_binds_the_network_view(self):
        session = _session(BudgetScheme(num_paths=3))
        session.prepare()
        view = session.scheme.path_cache
        assert view.k == 3
        shared = session.network.path_service.view(k=3)
        assert view.paths(8, 20) is shared.paths(8, 20)

    def test_prepare_without_budget_binds_nothing(self):
        session = _session(NullScheme())
        session.prepare()
        assert not hasattr(session.scheme, "path_cache")

    def test_equal_budgets_share_pair_sets_across_schemes(self):
        network = isp_topology().build_network(default_capacity=100.0)
        first = _session(BudgetScheme(num_paths=4), network)
        second = _session(make_scheme("spider-waterfilling", num_paths=4), network)
        first.prepare()
        second.prepare()
        assert (
            first.scheme.path_cache.paths(8, 20)
            is second.scheme.path_cache.paths(8, 20)
        )

    def test_registered_transports_are_known(self):
        for name in available_schemes():
            kind = make_scheme(name).transport
            assert kind is None or kind in _TRANSPORTS, (name, kind)

    def test_unknown_transport_is_rejected_at_prepare(self):
        class Bogus(NullScheme):
            name = "test-bogus-transport"
            transport = "bogus"

        session = _session(Bogus())
        with pytest.raises(ConfigError, match="unknown transport 'bogus'"):
            session.prepare()
