"""Property-based tests: fund conservation under arbitrary operation mixes.

The core safety property of the whole system is that escrowed funds are
conserved no matter what sequence of locks, settles and refunds the routing
layer produces.  Hypothesis drives random operation sequences against a
small network and checks the channel invariant after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientFundsError
from repro.network.network import PaymentNetwork
from tests.path_helpers import lock, refund, settle

PATHS = [
    (0, 1),
    (1, 0),
    (0, 1, 2),
    (2, 1, 0),
    (0, 2),
    (2, 0),
    (1, 2),
    (2, 1),
    (1, 0, 2),
    (0, 2, 1),
]


def build_triangle() -> PaymentNetwork:
    network = PaymentNetwork()
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        network.add_channel(u, v, 100.0)
    return network


operation = st.tuples(
    st.sampled_from(range(len(PATHS))),
    st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
    st.sampled_from(["settle", "refund", "hold"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, min_size=1, max_size=40))
def test_funds_conserved_under_arbitrary_traffic(operations):
    network = build_triangle()
    total = network.total_funds()
    held = []
    for path_index, amount, resolution in operations:
        path = PATHS[path_index]
        try:
            htlcs = lock(network, path, amount)
        except InsufficientFundsError:
            continue
        if resolution == "settle":
            settle(network, htlcs)
        elif resolution == "refund":
            refund(network, htlcs)
        else:
            held.append(htlcs)
        network.check_invariants()
        assert network.total_funds() == pytest.approx(total)
    # Resolve the held transfers both ways; conservation must still hold.
    for index, htlcs in enumerate(held):
        if index % 2 == 0:
            settle(network, htlcs)
        else:
            refund(network, htlcs)
    network.check_invariants()
    assert network.total_inflight() == pytest.approx(0.0)
    assert network.total_funds() == pytest.approx(total)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=49.0, allow_nan=False),
    st.integers(min_value=1, max_value=20),
)
def test_repeated_roundtrips_preserve_balances(amount, repetitions):
    """A settle in each direction is balance-neutral for every party."""
    network = build_triangle()
    before = network.balance_snapshot()
    for _ in range(repetitions):
        settle(network, lock(network, (0, 1, 2), amount))
        settle(network, lock(network, (2, 1, 0), amount))
    after = network.balance_snapshot()
    for key in before:
        assert after[key][0] == pytest.approx(before[key][0])
        assert after[key][1] == pytest.approx(before[key][1])


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0), st.integers(min_value=0, max_value=10))
def test_lock_refund_is_identity(amount, count):
    network = build_triangle()
    before = network.balance_snapshot()
    for _ in range(count):
        refund(network, lock(network, (0, 1, 2), amount))
    assert network.balance_snapshot() == before
