"""The columnar channel graph: bulk build, views, fee rule, footprint."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.pathservice import CsrGraph, PathService
from repro.engine.session import SimulationSession
from repro.errors import ChannelError, TopologyError
from repro.experiments.config import ExperimentConfig
from repro.fluid.paths import bfs_distances
from repro.network.channel import PaymentChannel
from repro.network.network import PaymentNetwork

#: Traced bytes ``build_network`` + ``direction_index()`` may keep per
#: channel (ripple-small measures ~335; per-channel objects cost ~1150).
BYTES_PER_CHANNEL = 400

_CAPACITY = st.one_of(
    st.floats(min_value=0.5, max_value=1e6),
    st.sampled_from([0.0, -1.0, math.nan, math.inf]),
)
_FEE = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([-0.1, math.nan, math.inf]),
)


@st.composite
def _channel_lists(draw):
    """Rows ``(u, v, capacity, balance fraction, base_fee, fee_rate)``,
    mostly valid, with self-loops, repeats, bad numbers now and then."""
    size = draw(st.integers(min_value=2, max_value=12))
    named = draw(st.booleans())
    node = (lambda n: f"n{n:02d}") if named else (lambda n: 5 * n - 7)
    valid = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        u = draw(st.integers(0, size - 1))
        v = draw(st.integers(0, size - 1))
        if valid and u == v:
            continue
        if valid:
            capacity = draw(st.floats(min_value=0.5, max_value=1e6))
            fraction = draw(st.floats(min_value=0.0, max_value=1.0))
            fees = (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.1)))
        else:
            capacity = draw(_CAPACITY)
            fraction = draw(st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5, math.nan]))
            fees = (draw(_FEE), draw(_FEE))
        rows.append((node(u), node(v), capacity, fraction, *fees))
    if valid:
        seen, unique = set(), []
        for row in rows:
            if frozenset(row[:2]) not in seen:
                seen.add(frozenset(row[:2]))
                unique.append(row)
        rows = unique
    return rows, draw(st.booleans())


def _one_by_one(rows, even):
    network = PaymentNetwork()
    try:
        for u, v, capacity, fraction, base_fee, fee_rate in rows:
            network.add_channel(
                u,
                v,
                capacity,
                None if even else capacity * fraction,
                base_fee=base_fee,
                fee_rate=fee_rate,
            )
    except Exception as error:  # compared with the bulk build's
        return error
    return network


def _in_bulk(rows, even):
    network = PaymentNetwork()
    columns = [list(column) for column in zip(*rows)] or [[] for _ in range(6)]
    us, vs, capacities, fractions, base_fees, fee_rates = columns
    try:
        network.add_channels(
            us,
            vs,
            capacities,
            None if even else [c * f for c, f in zip(capacities, fractions)],
            base_fee=base_fees,
            fee_rate=fee_rates,
        )
    except Exception as error:
        return error
    return network


@settings(max_examples=200, deadline=None)
@given(_channel_lists())
def test_bulk_build_matches_one_channel_at_a_time(data):
    rows, even = data
    single, bulk = _one_by_one(rows, even), _in_bulk(rows, even)
    if isinstance(single, Exception):
        assert type(bulk) is type(single)
        assert str(bulk) == str(single)
        return
    assert isinstance(bulk, PaymentNetwork), bulk
    for name in ("capacity_view", "balance_view", "inflight_view", "frozen_view"):
        got = getattr(bulk.state_store, name)
        want = getattr(single.state_store, name)
        assert got.tolist() == want.tolist()
    assert bulk.base_fees.tolist() == single.base_fees.tolist()
    assert bulk.fee_rates.tolist() == single.fee_rates.tolist()
    assert list(bulk.nodes()) == list(single.nodes())
    assert list(bulk.edges()) == list(single.edges())
    assert list(bulk.directed_edges()) == list(single.directed_edges())
    for node in single.nodes():
        assert bulk.neighbors(node) == single.neighbors(node)
        assert bulk.degree(node) == single.degree(node)
    got, want = bulk.direction_index(), single.direction_index()
    assert got.keys.tolist() == want.keys.tolist()
    assert got.dirs.tolist() == want.dirs.tolist()
    assert got.base_fees == want.base_fees
    assert got.fee_rates == want.fee_rates
    assert got.fee_bearing.tolist() == want.fee_bearing.tolist()
    assert got.int_pool.tolist() == want.int_pool.tolist()
    assert (got.nodes is None) == (want.nodes is None)
    # The CSR graph the path service shares is the one an adjacency
    # mapping compiles to.
    adjacency = {node: single.neighbors(node) for node in single.nodes()}
    fingerprint = CsrGraph.from_adjacency(adjacency).fingerprint()
    assert PathService.from_network(bulk).topology_fingerprint == fingerprint
    assert PathService.from_network(single).topology_fingerprint == fingerprint
    for u, v in single.directed_edges():
        assert bulk.direction_id(u, v) == single.direction_id(u, v)


@settings(max_examples=100, deadline=None)
@given(
    _channel_lists(),
    st.lists(st.tuples(st.integers(1, 4), st.booleans(), st.booleans()), min_size=1),
)
def test_mixed_bulk_and_single_appends_find_every_channel(data, plan):
    """Runs of ``add_channel`` between bulk adds, with lookups in between
    or not: every pair is found through the one graph lookup, and a
    repeat is refused whichever way its first copy was added."""
    rows, even = data
    reference = _one_by_one(rows, even)
    assume(isinstance(reference, PaymentNetwork))
    network, start, step = PaymentNetwork(), 0, 0
    while start < len(rows):
        size, bulk, look = plan[step % len(plan)]
        chunk, start, step = rows[start : start + size], start + size, step + 1
        if bulk:
            columns = [list(column) for column in zip(*chunk)]
            us, vs, capacities, fractions, base_fees, fee_rates = columns
            network.add_channels(
                us,
                vs,
                capacities,
                None if even else [c * f for c, f in zip(capacities, fractions)],
                base_fee=base_fees,
                fee_rate=fee_rates,
            )
        else:
            for u, v, capacity, fraction, base_fee, fee_rate in chunk:
                network.add_channel(
                    u,
                    v,
                    capacity,
                    None if even else capacity * fraction,
                    base_fee=base_fee,
                    fee_rate=fee_rate,
                )
        u, v = chunk[0][:2]
        with pytest.raises(TopologyError, match="already exists"):
            network.add_channel(v, u, 1.0)
        if look:
            for a, b in network.directed_edges():
                assert network.has_channel(a, b)
                assert network.direction_id(a, b) == reference.direction_id(a, b)
    assert network.state_store.balance_view.tolist() == (
        reference.state_store.balance_view.tolist()
    )
    nodes = list(reference.nodes())
    for a in nodes:
        for b in nodes:
            assert network.has_channel(a, b) == reference.has_channel(a, b)
            if reference.has_channel(a, b):
                assert network.direction_id(a, b) == reference.direction_id(a, b)


def test_channel_views_are_memoised_and_lazy():
    network = PaymentNetwork()
    network.add_channels([0, 1], [1, 2], [10.0, 20.0])
    assert not network._views
    assert network.channel(0, 1) is network.channel(1, 0)
    assert network.channel(1, 2).capacity == 20.0
    assert network.direction_id(2, 1) >> 1 == network.channel(1, 2).channel_id


def test_a_run_makes_no_channel_view(monkeypatch):
    made = []
    make = PaymentChannel._of.__func__

    def counted(cls, network, cid):
        made.append(cid)
        return make(cls, network, cid)

    monkeypatch.setattr(PaymentChannel, "_of", classmethod(counted))
    config = ExperimentConfig(
        scheme="spider-waterfilling",
        topology="ripple-small",
        capacity=200.0,
        num_transactions=300,
        seed=7,
    )
    session = SimulationSession.from_config(config)
    metrics = session.run()
    assert metrics.completed > 0
    assert made == []
    session.network.channel(*next(session.network.edges()))
    assert made == [0]  # the count sees a view when one is made


def test_build_keeps_a_few_hundred_bytes_per_channel():
    topology = ExperimentConfig(topology="ripple-small").build_topology()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network = topology.build_network(default_capacity=100.0)
        network.direction_index()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert network.num_channels == 663
    assert kept / network.num_channels < BYTES_PER_CHANNEL


class TestFeeRule:
    def _line(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0)
        return network

    def test_fee_set_before_compile_prices_every_path(self):
        network = self._line()
        network.channel(1, 2).base_fee = 0.5
        cpath = network.path_table.compile((0, 1, 2))
        assert cpath.hop_amounts(1.0) == [1.5, 1.0]
        assert network.direction_index().base_fees == [0.0, 0.0, 0.5, 0.5]
        assert network.channel(2, 1).forwarding_fee(1.0) == 0.5

    def test_fee_set_after_compile_is_refused_by_name(self):
        network = self._line()
        old = network.path_table.compile((0, 1, 2))
        channel = network.channel(1, 2)
        with pytest.raises(ChannelError, match=r"fees of channel \(1, 2\) are fixed"):
            channel.base_fee = 0.5
        with pytest.raises(ChannelError, match=r"\(1, 2\)"):
            channel.fee_rate = 0.1
        assert channel.base_fee == channel.fee_rate == 0.0
        assert old.hop_amounts(1.0) == [1.0, 1.0]
        assert network.path_table.compile((2, 1, 0)).hop_amounts(1.0) == [1.0, 1.0]
        assert network.direction_index().base_fees == [0.0] * 4

    def test_bad_fee_is_refused(self):
        channel = self._line().channel(0, 1)
        with pytest.raises(ChannelError, match="non-negative and finite"):
            channel.fee_rate = -1.0


def test_celer_rows_are_the_bfs_distances():
    """Celer's per-destination rows come from the network's CSR graph;
    each equals the dict BFS over the sorted adjacency."""
    config = ExperimentConfig(
        scheme="celer", topology="ripple-small", capacity=200.0, num_transactions=50
    )
    session = SimulationSession.from_config(config)
    session.prepare()
    transport, network = session.transport, session.network
    adjacency = {node: network.neighbors(node) for node in network.nodes()}
    graph = network.graph()
    for dest in network.nodes():
        row = transport._distance_row(dest)
        want = bfs_distances(adjacency, dest)
        got = {graph.nodes[r]: d for r, d in enumerate(row.tolist()) if d >= 0}
        assert got == want
        assert int(np.count_nonzero(row < 0)) == network.num_nodes - len(want)
