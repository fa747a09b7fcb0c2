"""Property-based tests for the extension modules.

Hypothesis drives randomised inputs against the invariants the new
systems rely on: Gini's mathematical properties, fund conservation under
arbitrary freeze/thaw interleavings, AIMD window bounds, LND path
optimality against brute force, and simple-trail delivery under
backpressure.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payments import Payment
from repro.core.window_control import WindowedSpiderScheme
from repro.errors import InsufficientFundsError
from repro.network.network import PaymentNetwork
from tests.path_helpers import lock, settle


# ----------------------------------------------------------------------
# Gini coefficient
# ----------------------------------------------------------------------
values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


@settings(max_examples=200, deadline=None)
@given(values_strategy)
def test_gini_is_bounded(values):
    from repro.metrics.incentives import gini

    g = gini(values)
    assert 0.0 <= g < 1.0 + 1e-9


@settings(max_examples=200, deadline=None)
@given(values_strategy, st.floats(min_value=0.01, max_value=100.0))
def test_gini_is_scale_invariant(values, scale):
    from repro.metrics.incentives import gini

    assert gini(values) == pytest.approx(
        gini([v * scale for v in values]), abs=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=1e5, allow_nan=False),
    st.integers(min_value=1, max_value=40),
)
def test_gini_of_constant_distribution_is_zero(value, n):
    from repro.metrics.incentives import gini

    assert gini([value] * n) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(values_strategy)
def test_gini_permutation_invariant(values):
    from repro.metrics.incentives import gini

    assert gini(values) == pytest.approx(gini(list(reversed(values))), abs=1e-9)


# ----------------------------------------------------------------------
# Freeze/thaw safety
# ----------------------------------------------------------------------
freeze_op = st.tuples(
    st.sampled_from(["lock", "settle_all", "freeze", "unfreeze"]),
    st.floats(min_value=0.01, max_value=40.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(freeze_op, min_size=1, max_size=40))
def test_freeze_thaw_conserves_funds(operations):
    network = PaymentNetwork()
    channel = network.add_channel(0, 1, 100.0)
    total = network.total_funds()
    pending = []
    for op, amount in operations:
        if op == "lock":
            try:
                pending.append(lock(network, (0, 1), amount))
            except InsufficientFundsError:
                pass
        elif op == "settle_all":
            for held in pending:
                settle(network, held)
            pending.clear()
        elif op == "freeze":
            channel.freeze()
        else:
            channel.unfreeze()
        channel.check_invariant()
        assert network.total_funds() == pytest.approx(total)
        if channel.frozen:
            assert channel.available(0) == 0.0
            assert channel.available(1) == 0.0


# ----------------------------------------------------------------------
# AIMD window bounds
# ----------------------------------------------------------------------
ack_strategy = st.tuples(
    st.sampled_from(["settled", "cancelled", "lost"]),
    st.booleans(),  # marked
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # time
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ack_strategy, min_size=1, max_size=60))
def test_window_stays_within_bounds(acks):
    from repro.engine.transport import HopUnit

    scheme = WindowedSpiderScheme(
        initial_window=100.0, min_window=5.0, max_window=400.0, rtt=0.25
    )
    path = (0, 1, 2)
    network = PaymentNetwork()
    network.add_channel(0, 1, 100.0)
    network.add_channel(1, 2, 100.0)
    cpath = network.path_table.compile(path)
    for i, (outcome, marked, amount, now) in enumerate(acks):
        payment = Payment(
            payment_id=i, source=0, dest=2, amount=amount, arrival_time=0.0
        )
        payment.register_inflight(amount)
        unit = HopUnit(payment, amount, cpath)
        unit.marked = marked
        scheme.on_unit_resolved(unit, outcome, now)
        state = scheme.window(cpath)
        assert 5.0 <= state.window <= 400.0
        assert state.inflight >= 0.0


# ----------------------------------------------------------------------
# LND path optimality
# ----------------------------------------------------------------------
@st.composite
def fee_graphs(draw):
    """A small random connected fee-charging network."""
    n = draw(st.integers(min_value=3, max_value=6))
    extra_edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=6,
        )
    )
    fee_rates = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=n - 1 + len(extra_edges),
            max_size=n - 1 + len(extra_edges),
        )
    )
    network = PaymentNetwork()
    edges = [(i, i + 1) for i in range(n - 1)]  # a line keeps it connected
    for u, v in extra_edges:
        if u != v and not any({u, v} == {a, b} for a, b in edges):
            edges.append((u, v))
    for (u, v), rate in zip(edges, fee_rates):
        network.add_channel(u, v, 10_000.0, fee_rate=rate)
    return network, n


def brute_force_cheapest(network, source, dest, amount, hop_penalty):
    """Exhaustive cheapest path by total fee + hop penalty."""
    adjacency = {node: sorted(network.neighbors(node)) for node in network.nodes()}
    best_cost, best_path = float("inf"), None
    nodes = sorted(network.nodes())

    def walk(path):
        nonlocal best_cost, best_path
        node = path[-1]
        if node == dest:
            amounts = network.path_table.compile(path).hop_amounts(amount)
            cost = (amounts[0] - amount) + hop_penalty * (len(path) - 1)
            if cost < best_cost - 1e-12:
                best_cost, best_path = cost, tuple(path)
            return
        for neighbor in adjacency[node]:
            if neighbor not in path:
                walk(path + [neighbor])

    walk([source])
    return best_cost, best_path


@settings(max_examples=80, deadline=None)
@given(fee_graphs(), st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
def test_lnd_dijkstra_matches_brute_force(graph_and_n, amount):
    from repro.routing.lnd import LndScheme

    network, n = graph_and_n
    scheme = LndScheme(hop_penalty=0.5)
    scheme._snapshot(network)
    source, dest = 0, n - 1
    found = scheme._find_path(network, source, dest, amount, set(), now=0.0)
    expected_cost, _ = brute_force_cheapest(network, source, dest, amount, 0.5)
    assert found is not None
    amounts = network.path_table.compile(found).hop_amounts(amount)
    found_cost = (amounts[0] - amount) + 0.5 * (len(found) - 1)
    assert found_cost == pytest.approx(expected_cost, abs=1e-6)


# ----------------------------------------------------------------------
# Backpressure delivers over simple trails
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=4, max_value=7),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=1000),
)
def test_backpressure_settled_trails_are_simple(num_nodes, num_payments, seed):
    from repro.engine.session import RuntimeConfig, SimulationSession
    from repro.metrics.collectors import MetricsCollector
    from repro.routing.backpressure import CelerScheme
    from repro.simulator.rng import make_rng
    from repro.topology.generators import cycle_topology
    from repro.workload.generator import TransactionRecord

    rng = make_rng(seed)

    class TrailCollector(MetricsCollector):
        def __init__(self):
            super().__init__()
            self.trails = []

        def on_unit_settled(self, unit, now):
            super().on_unit_settled(unit, now)
            self.trails.append(unit.path)

    network = cycle_topology(num_nodes).build_network(default_capacity=60.0)
    records = []
    for i in range(num_payments):
        source = int(rng.integers(0, num_nodes))
        dest = int((source + 1 + rng.integers(0, num_nodes - 1)) % num_nodes)
        records.append(
            TransactionRecord(i, 0.5 + 0.3 * i, source, dest, 10.0 + float(rng.integers(0, 20)))
        )
    collector = TrailCollector()
    runtime = SimulationSession(
        network,
        records,
        CelerScheme(),
        RuntimeConfig(end_time=20.0, check_invariants=True),
        collector=collector,
    )
    runtime.run()
    for trail in collector.trails:
        assert len(set(trail)) == len(trail), f"trail revisits a node: {trail}"
        assert all(
            network.has_channel(a, b) for a, b in zip(trail, trail[1:])
        ), f"trail uses a missing channel: {trail}"
