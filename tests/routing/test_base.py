"""Tests for the routing scheme base class contract."""

from __future__ import annotations

import pytest

from repro.engine.session import SimulationSession
from repro.engine.transport import BackpressureTransport, HopByHopTransport
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
    """Declares a per-pair path budget."""

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
        assert scheme.make_transport(_session(scheme)) is None

    def test_view_is_one_cache_per_budget(self):
        """``view(k)`` is the memoising cache itself: repeated calls return
        the same object, and a budget's pair sets are the ones the
        session's prepare discovered (nothing is left to discover)."""
        session = _session(BudgetScheme(num_paths=3))
        session.prepare()
        service = session.network.path_service
        view = service.view(k=3)
        assert service.view(k=3) is view
        assert service.view(k=4) is not view
        view.provider = None  # a miss would have to call it
        assert view.paths(8, 20) == view.paths(8, 20)
        assert len(view.paths(8, 20)) == 3

    def test_prepare_binds_no_path_cache(self):
        for scheme in (NullScheme(), BudgetScheme(num_paths=3)):
            session = _session(scheme)
            session.prepare()
            assert not hasattr(session.scheme, "path_cache")

    def test_equal_budgets_share_pair_lists_across_sessions(self):
        """Two sessions over separately built networks of one topology get
        different caches serving one memoised pair store."""
        first = _session(BudgetScheme(num_paths=4))
        second = _session(make_scheme("spider-waterfilling", num_paths=4))
        first.prepare()
        views = [s.network.path_service.view(k=4) for s in (first, second)]
        assert views[0] is not views[1]
        views[1].provider = None  # the second session discovers nothing
        second.prepare()
        assert views[0].paths(8, 20) == views[1].paths(8, 20)


#: The transport each transport scheme builds: its class, the scheme
#: arguments, and the transport parameters those arguments must give.
TRANSPORT_SCHEMES = {
    "spider-queueing": (
        HopByHopTransport,
        {},
        {"hop_delay": 0.05, "queue_timeout": 5.0, "mark_threshold": None},
    ),
    "spider-window": (
        HopByHopTransport,
        {"hop_delay": 0.01, "queue_timeout": 3.0, "mark_threshold": 0.2},
        {"hop_delay": 0.01, "queue_timeout": 3.0, "mark_threshold": 0.2},
    ),
    "celer": (
        BackpressureTransport,
        {"service_interval": 0.25, "beta": 3.0, "max_hops": 6, "stuck_after": 2.0},
        {"service_interval": 0.25, "beta": 3.0, "max_hops": 6, "stuck_after": 2.0},
    ),
}


@pytest.mark.parametrize("name", available_schemes())
def test_scheme_builds_the_transport_it_needs(name):
    """Every registered scheme's ``make_transport`` returns ``None`` (a
    source-routed scheme) or the transport class it routes on, built for
    the session with the scheme's parameters."""
    transport_class, scheme_kwargs, params = TRANSPORT_SCHEMES.get(name, (None, {}, {}))
    scheme = make_scheme(name, **scheme_kwargs)
    session = _session(scheme)
    transport = scheme.make_transport(session)
    if transport_class is None:
        assert transport is None
        return
    assert type(transport) is transport_class
    assert transport.session is session
    assert {key: getattr(transport, key) for key in params} == params


def test_every_transport_scheme_is_registered():
    assert set(TRANSPORT_SCHEMES) <= set(available_schemes())
