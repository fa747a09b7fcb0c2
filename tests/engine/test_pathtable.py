"""PathTable correctness: the path-op kernels pinned against per-hop loops.

The kernels (`repro.engine.pathtable`, behind every probe, lock and
settle the engine makes on a compiled path) must be *float-for-float*
identical to the per-hop reference, plain arithmetic on the store arrays
(`tests.reference.path_ops`) — same results, same side effects, same
exceptions — on arbitrary topologies with
fee-bearing channels, frozen channels and mid-path rollback.  Hypothesis
drives random networks and operation mixes against two twins of the same
network, one through the kernels and one through the reference, and
compares the raw store arrays exactly (no tolerance).
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payments import Payment, UnitState
from repro.engine import pathtable
from repro.engine.pathtable import PathTable
from repro.engine.session import RuntimeConfig, SimulationSession
from repro.errors import ChannelError, InsufficientFundsError, PaymentError
from repro.network.network import PaymentNetwork
from repro.routing.registry import make_scheme
from repro.topology.generators import line_topology
from repro.workload.generator import TransactionRecord
from tests import path_helpers as compiled
from tests.reference.path_ops import ReferencePathOps


def build_network(spec) -> PaymentNetwork:
    """The network ``spec`` describes: ``(edges, frozen_flags)`` where each
    edge is ``(u, v, capacity, balance_u, base_fee, fee_rate)``."""
    network = PaymentNetwork()
    for u, v, capacity, balance_u, base_fee, fee_rate in spec[0]:
        network.add_channel(
            u, v, capacity, balance_u=balance_u,
            base_fee=base_fee, fee_rate=fee_rate,
        )
    for index, frozen in enumerate(spec[1]):
        if frozen:
            list(network.channels())[index].freeze()
    return network


def build_twins(spec):
    """Two identical networks: one driven through the compiled-path
    kernels, the other wrapped in the per-hop reference."""
    return build_network(spec), ReferencePathOps(build_network(spec))


#: Every mutable store array.
STORE_STATE = (
    "balance", "inflight", "sent", "settled_flow",
    "num_settled", "num_refunded", "frozen",
)


def assert_stores_identical(vec: PaymentNetwork, ref: PaymentNetwork):
    """Byte-exact comparison of every mutable store array."""
    a, b = vec.state_store, ref.state_store
    for field in STORE_STATE:
        va = getattr(a, field)[: len(a)]
        vb = getattr(b, field)[: len(b)]
        assert np.array_equal(va, vb), f"{field} diverged:\n{va}\nvs\n{vb}"


@st.composite
def network_specs(draw):
    """A small random connected network with fees, plus candidate trails."""
    n = draw(st.integers(min_value=3, max_value=7))
    edge_set = {(i, i + 1) for i in range(n - 1)}  # spanning chain
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=5,
        )
    )
    for u, v in extras:
        if u != v:
            edge_set.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(edge_set):
        capacity = draw(st.floats(min_value=10.0, max_value=200.0))
        balance_u = draw(st.floats(min_value=0.0, max_value=1.0)) * capacity
        fee_bearing = draw(st.booleans())
        base_fee = draw(st.floats(min_value=0.0, max_value=2.0)) if fee_bearing else 0.0
        fee_rate = draw(st.floats(min_value=0.0, max_value=0.1)) if fee_bearing else 0.0
        edges.append((u, v, capacity, balance_u, base_fee, fee_rate))
    frozen = [draw(st.booleans()) and draw(st.booleans()) for _ in edges]
    adjacency = {i: set() for i in range(n)}
    for u, v, *_ in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    # Candidate trails: random walks without node revisits.
    paths = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        node = draw(st.integers(min_value=0, max_value=n - 1))
        path = [node]
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            options = sorted(adjacency[path[-1]] - set(path))
            if not options:
                break
            path.append(options[draw(st.integers(min_value=0, max_value=8)) % len(options)])
        if len(path) >= 2:
            paths.append(tuple(path))
    if not paths:
        paths.append((0, 1))
    return (edges, frozen), paths


@settings(max_examples=60, deadline=None)
@given(network_specs())
def test_bottleneck_and_hop_amounts_match_reference(data):
    spec, paths = data
    vec, ref = build_twins(spec)
    table = vec.path_table
    for path in paths:
        cpath = table.compile(path)
        assert table.bottleneck(cpath) == ref.bottleneck(path)
        assert cpath.hop_amounts(13.7) == ref.hop_amounts(path, 13.7)
        # The first short hop LND reports, at an arbitrary amount and just
        # inside and just outside the 1e-9 tolerance above the bottleneck.
        bottleneck = ref.bottleneck(path)
        for amount in (13.7, bottleneck + 5e-10, bottleneck + 2e-9):
            amounts = ref.hop_amounts(path, amount)
            assert table.unfunded_hop(cpath, amounts) == ref.unfunded_hop(
                path, amounts
            )
    # The batch probe agrees with the per-path reference, exactly.
    batch = compiled.probe(vec, paths)
    assert batch == [ref.bottleneck(p) for p in paths]
    # And the memoised re-probe (no mutations in between) is identical.
    assert compiled.probe(vec, paths) == batch


@settings(max_examples=60, deadline=None)
@given(
    network_specs(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),  # path selector
            st.floats(min_value=0.01, max_value=80.0, allow_nan=False),
            st.sampled_from(["settle", "refund", "hold"]),
            st.integers(min_value=0, max_value=63),  # freeze/unfreeze selector
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_lock_settle_refund_parity_under_random_traffic(data, operations):
    """Same op mix on both twins ⇒ byte-identical store state throughout,
    including clamped lock amounts, frozen rejections and mid-path
    rollback side effects."""
    spec, paths = data
    vec, ref = build_twins(spec)
    held = []
    channels_vec = list(vec.channels())
    channels_ref = list(ref.network.channels())
    for step, (path_index, amount, resolution, churn) in enumerate(operations):
        path = paths[path_index % len(paths)]
        if churn % 7 == 0:  # occasional churn: freeze or thaw one channel
            index = churn % len(channels_vec)
            if channels_vec[index].frozen:
                channels_vec[index].unfreeze()
                channels_ref[index].unfreeze()
            else:
                channels_vec[index].freeze()
                channels_ref[index].freeze()
        outcome_vec = outcome_ref = None
        try:
            lock_vec = compiled.lock(vec, path, amount)
        except InsufficientFundsError:
            outcome_vec = "insufficient"
        try:
            lock_ref = ref.lock_path(path, amount)
        except InsufficientFundsError:
            outcome_ref = "insufficient"
        assert outcome_vec == outcome_ref, f"step {step} on {path}"
        assert_stores_identical(vec, ref.network)
        if outcome_vec is not None:
            continue
        assert len(lock_vec.amounts) == len(lock_ref) == len(path) - 1
        assert lock_vec.amounts == [hop.amount for hop in lock_ref]
        if resolution == "settle":
            compiled.settle(vec, lock_vec)
            ref.settle_path(path, lock_ref)
        elif resolution == "refund":
            compiled.refund(vec, lock_vec)
            ref.refund_path(path, lock_ref)
        else:
            held.append((path, lock_vec, lock_ref))
        assert_stores_identical(vec, ref.network)
        vec.check_invariants()
    for index, (path, lock_vec, lock_ref) in enumerate(held):
        if index % 2 == 0:
            compiled.settle(vec, lock_vec)
            ref.settle_path(path, lock_ref)
        else:
            compiled.refund(vec, lock_vec)
            ref.refund_path(path, lock_ref)
    assert_stores_identical(vec, ref.network)
    assert vec.total_inflight() == ref.network.total_inflight()


@settings(max_examples=60, deadline=None)
@given(
    network_specs(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),  # path selector
            st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
            st.booleans(),  # settle (else refund)
        ),
        min_size=1,
        max_size=15,
    ),
)
def test_fee_inclusive_locks_match_reference(data, operations):
    """Locks carrying the fee recurrence's per-hop amounts — how a send
    locks on fee-bearing channels — then settled or refunded: identical
    amounts, outcomes and store bits on both twins."""
    spec, paths = data
    vec, ref = build_twins(spec)
    for path_index, amount, settle in operations:
        path = paths[path_index % len(paths)]
        amounts = ref.hop_amounts(path, amount)
        cpath = vec.path_table.compile(path)
        assert cpath.hop_amounts(amount) == amounts
        assert vec.path_table.unfunded_hop(cpath, amounts) == ref.unfunded_hop(
            path, amounts
        )
        lock_vec = lock_ref = None
        try:
            lock_vec = compiled.lock(vec, path, amount, amounts)
        except InsufficientFundsError:
            pass
        try:
            lock_ref = ref.lock_path(path, amount, amounts=amounts)
        except InsufficientFundsError:
            pass
        assert (lock_vec is None) == (lock_ref is None)
        if lock_vec is not None:
            assert lock_vec.amounts == [hop.amount for hop in lock_ref]
            if settle:
                compiled.settle(vec, lock_vec)
                ref.settle_path(path, lock_ref)
            else:
                compiled.refund(vec, lock_vec)
                ref.refund_path(path, lock_ref)
        assert_stores_identical(vec, ref.network)
    vec.check_invariants()


def _newest_unit(session):
    """The unit the session's last successful send booked."""
    return [unit for batch in session._resolve_batches.values() for unit in batch][-1]


def _resolve(session, unit, settle):
    """Resolve ``unit`` the way the session does at maturity: settled, or
    refunded because the sender withholds the key past the deadline."""
    if not settle:
        unit.payment.deadline = -1.0
    session._resolve_unit(unit)


def _send_session(network, **config):
    return SimulationSession(
        network, [], make_scheme("spider-waterfilling"), RuntimeConfig(**config)
    )


@settings(max_examples=60, deadline=None)
@given(
    network_specs(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),  # path selector
            st.floats(min_value=0.0, max_value=80.0),  # offered amount
            st.floats(min_value=1.0, max_value=60.0),  # payment amount
            st.sampled_from([None, 0.0, 0.05, 5.0]),  # fee budget
            st.sampled_from(["settle", "refund", "hold"]),
            st.integers(min_value=0, max_value=63),  # freeze/unfreeze selector
        ),
        min_size=1,
        max_size=20,
    ),
    st.sampled_from([math.inf, 7.5]),  # MTU
)
def test_compiled_send_matches_reference(data, operations, mtu):
    """The session's send core against the per-hop oracle.  The same sends
    — through a path compiled by the table's memo (``send_compiled``) —
    take the same decision (dust, fee budget, a short or frozen hop with
    its rollback), lock the same per-hop amounts
    and leave bit-identical store arrays; resolving each unit straight
    through its lock matches the oracle's settle or refund, and a second
    resolution raises and writes nothing."""
    spec, paths = data
    vec, ref = build_twins(spec)
    min_unit = 0.5
    session = _send_session(vec, mtu=mtu, min_unit_value=min_unit)
    table = vec.path_table
    channels_vec = list(vec.channels())
    channels_ref = list(ref.network.channels())
    held = []
    for step, (path_index, offer, value, max_fee, resolution, churn) in enumerate(
        operations
    ):
        path = paths[path_index % len(paths)]
        if churn % 5 == 0:  # occasional churn: freeze or thaw one channel
            index = churn % len(channels_vec)
            for channel in (channels_vec[index], channels_ref[index]):
                if channel.frozen:
                    channel.unfreeze()
                else:
                    channel.freeze()
        payment = Payment(
            payment_id=step, source=path[0], dest=path[-1], amount=value,
            arrival_time=0.0, max_fee=max_fee,
        )
        sent = session.send_compiled(payment, table.compile(path), offer)
        want = ref.send_unit(
            path, offer, remaining=value, mtu=mtu, min_unit=min_unit, max_fee=max_fee
        )
        assert sent == (want is not None), f"step {step} on {path}"
        assert_stores_identical(vec, ref.network)
        if want is None:
            assert payment.inflight == 0.0
            continue
        delivered, fee, hops = want
        unit = _newest_unit(session)
        assert (unit.amount, unit.fee, payment.inflight) == (delivered, fee, delivered)
        assert unit.locked == [hop.amount for hop in hops]
        if resolution == "hold":
            held.append((path, unit, hops))
            continue
        _resolve(session, unit, resolution == "settle")
        getattr(ref, f"{resolution}_path")(path, hops)
        assert_stores_identical(vec, ref.network)
    for index, (path, unit, hops) in enumerate(held):
        _resolve(session, unit, index % 2 == 0)
        getattr(ref, "settle_path" if index % 2 == 0 else "refund_path")(path, hops)
        with pytest.raises(PaymentError, match="already resolved"):
            session._resolve_unit(unit)
        assert_stores_identical(vec, ref.network)
    vec.check_invariants()


@st.composite
def long_line_specs(draw):
    """A fee-bearing line of 34 nodes probed along a path set of at least
    64 hops: both end-to-end trails plus a few short sub-trails, so a
    single-channel mutation changes some paths of the set but not all."""
    n = 34
    edges = []
    for u in range(n - 1):
        capacity = draw(st.floats(min_value=10.0, max_value=200.0))
        balance_u = draw(st.floats(min_value=0.0, max_value=1.0)) * capacity
        base_fee = draw(st.floats(min_value=0.0, max_value=2.0))
        fee_rate = draw(st.floats(min_value=0.0, max_value=0.1))
        edges.append((u, u + 1, capacity, balance_u, base_fee, fee_rate))
    frozen = [draw(st.booleans()) and draw(st.booleans()) for _ in edges]
    paths = [tuple(range(n)), tuple(range(n - 1, -1, -1))]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=n - 2))
        end = draw(st.integers(min_value=start + 1, max_value=min(n - 1, start + 3)))
        path = tuple(range(start, end + 1))
        paths.append(path if draw(st.booleans()) else path[::-1])
    return (edges, frozen), paths


@settings(max_examples=60, deadline=None)
@given(st.one_of(network_specs(), long_line_specs()), st.data())
def test_batch_probe_refreshes_after_mutations(data, rand):
    """The memoised batch probe must track every kind of store mutation:
    locks, settles, refunds, freezes, thaws and deposits — on small path
    sets and on sets of 64 hops or more alike."""
    spec, paths = data
    vec, ref = build_twins(spec)
    channels_vec = list(vec.channels())
    channels_ref = list(ref.network.channels())
    for _ in range(6):
        assert compiled.probe(vec, paths) == [ref.bottleneck(p) for p in paths]
        action = rand.draw(st.sampled_from(["lock", "freeze", "thaw", "deposit"]))
        index = rand.draw(st.integers(min_value=0, max_value=len(channels_vec) - 1))
        cv, cr = channels_vec[index], channels_ref[index]
        if action == "lock" and not cv.frozen and cv.balance(cv.node_a) > 1.0:
            amount = cv.balance(cv.node_a) / 2.0
            compiled.lock(vec, (cv.node_a, cv.node_b), amount)
            ref.lock_path((cr.node_a, cr.node_b), amount)
        elif action == "freeze":
            cv.freeze()
            cr.freeze()
        elif action == "thaw":
            cv.unfreeze()
            cr.unfreeze()
        else:
            cv.deposit(cv.node_b, 5.0)
            cr.deposit(cr.node_b, 5.0)


def _invalid_path(kind, base, joined, position):
    """The valid trail ``base`` made invalid in one ``kind`` of way
    (``None`` when the graph has no such path).  ``joined`` holds every
    directed edge.  An unknown integer id sits right below the id it
    replaces, which is where a sorted-id lookup would confuse the two."""
    if kind == "empty":
        return ()
    if kind == "unknown":
        node = base[position % len(base)]
        alias = node - 1 if isinstance(node, int) else node + "?"
        return tuple(alias if n == node else n for n in base)
    if kind == "foreign":  # an id no integer array can hold
        return base + ("nowhere",)
    if kind == "revisit":
        return base + (base[0],)
    for node in sorted({u for u, _ in joined}):
        if node not in base and (base[-1], node) not in joined:
            return base + (node,)  # a hop with no channel under it
    return None


@settings(max_examples=150, deadline=None)
@given(network_specs(), st.data())
def test_compile_columns_matches_per_path_compile(data, rand):
    """The batch kernel against ``compile``, path by path: same compiled
    hops, nodes, fees, probes and — for an invalid batch — the same
    exception as the first offender alone raises, with nothing
    registered; whatever the scratch budget splits the batch into."""
    (edges, _), trails = data
    # Sparse integer ids resolve through the array index, any other id
    # path by path.
    named = rand.draw(st.booleans())
    node_of = (lambda n: f"n{n}") if named else (lambda n: 3 * n + 1)
    network = PaymentNetwork()
    for u, v, capacity, balance_u, base_fee, fee_rate in edges:
        network.add_channel(
            node_of(u), node_of(v), capacity, balance_u=balance_u,
            base_fee=base_fee, fee_rate=fee_rate,
        )
    joined = set(network.directed_edges())
    trails = [tuple(node_of(n) for n in trail) for trail in trails]
    # Path sets with paths shared between sets and repeated within one,
    # a hopless path among them.
    picks = st.lists(
        st.sampled_from(trails + [trails[0][:1]]), min_size=1, max_size=4
    )
    path_sets = [
        rand.draw(picks)
        for _ in range(rand.draw(st.integers(min_value=1, max_value=5)))
    ]
    batch, single = PathTable(network), PathTable(network)
    reference = ReferencePathOps(network)
    invalid = False
    for kind in rand.draw(
        st.lists(
            st.sampled_from(["empty", "unknown", "revisit", "missing"]),
            max_size=2,
            unique=True,
        )
    ):
        bad = _invalid_path(
            kind,
            rand.draw(st.sampled_from(trails)),
            joined,
            rand.draw(st.integers(min_value=0, max_value=7)),
        )
        if bad is not None:
            invalid = True
            target = rand.draw(st.sampled_from(path_sets))
            target.insert(rand.draw(st.integers(0, len(target))), bad)
    columns = compiled.path_columns(path_sets)
    budget = rand.draw(st.sampled_from([1, 3, pathtable._COMPILE_CHUNK_NODES]))

    if invalid:
        expected = None
        for path in (path for paths in path_sets for path in paths):
            try:
                single.compile(path)
            except Exception as error:  # the first offender, in input order
                expected = error
                break
        with mock.patch.object(pathtable, "_COMPILE_CHUNK_NODES", budget):
            with pytest.raises(type(expected)) as raised:
                batch.compile_columns(columns)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
        assert not batch._compiled and not batch._probes
        return

    with mock.patch.object(pathtable, "_COMPILE_CHUNK_NODES", budget):
        cpaths = batch.compile_columns(columns)
    assert len(cpaths) == sum(len(paths) for paths in path_sets)
    store = network.state_store
    rows = iter(cpaths)
    for paths in path_sets:
        got_set = [next(rows) for _ in paths]
        for got, path in zip(got_set, paths):
            want = single.compile(path)
            assert got.nodes == want.nodes == tuple(path)
            assert got.dirs.dtype == want.dirs.dtype
            assert got.dirs.tolist() == want.dirs.tolist()
            assert got.dir_list == want.dir_list
            assert got.fee_free == want.fee_free
            for amount in (0.0, 13.7, 1e-3):
                assert got.hop_amounts(amount) == want.hop_amounts(amount)
                assert got.hop_amounts(amount) == reference.hop_amounts(path, amount)
        got, want = batch.handle(got_set), single.probe_handle(paths)
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert got.offsets.tolist() == want.offsets.tolist()
        batch.refresh_probes([got])
        single.refresh_probes([want])
        assert got.values_list == want.values_list
        assert got.values_list == [
            float(store.availability(c.dirs).min()) for c in want.cpaths
        ]


def test_batch_compiled_set_probes_the_arena_in_place():
    """Paths compiled in one batch are rows of its arena — their hops and
    nodes read from its columns — and so is the handle of a set sitting
    on consecutive rows; a set that mixes in a path compiled elsewhere
    concatenates its own copy."""
    network = PaymentNetwork()
    for u, v in ((0, 1), (1, 2), (0, 3), (3, 2)):
        network.add_channel(u, v, 100.0)
    table = network.path_table
    pair = [(0, 1, 2), (0, 3, 2)]
    cpaths = table.compile_columns(compiled.path_columns([pair, [(1, 2)]]))
    assert [cpath.nodes for cpath in cpaths] == pair + [(1, 2)]
    probe = table.handle(cpaths[:2])
    arena = probe.cpaths[0].arena
    assert all(cpath.arena is arena for cpath in cpaths)
    assert all(np.shares_memory(c.dirs, arena.dirs) for c in probe.cpaths)
    assert np.shares_memory(probe.dirs, arena.dirs)
    assert not arena.dirs.flags.writeable
    mixed = table.handle([cpaths[0], table.compile((2, 1))])
    assert not np.shares_memory(mixed.dirs, arena.dirs)
    assert table.bottleneck_many(probe) == [50.0, 50.0]
    assert table.handle([]) is None


class TestMidPathRollback:
    """Deterministic pin of the engineered §lock_path failure semantics."""

    def build(self) -> PaymentNetwork:
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0, base_fee=1.0, fee_rate=0.05)
        network.add_channel(2, 3, 100.0)
        # Drain 2->3 so the last hop fails after two hops locked.
        compiled.lock(network, (2, 3), 49.0)
        return network

    def test_rollback_side_effects_match_reference(self):
        vec, ref = self.build(), ReferencePathOps(self.build())
        path = (0, 1, 2, 3)
        amounts = ref.hop_amounts(path, 10.0)
        assert vec.path_table.compile(path).hop_amounts(10.0) == amounts
        with pytest.raises(InsufficientFundsError):
            compiled.lock(vec, path, 10.0, amounts)
        with pytest.raises(InsufficientFundsError):
            ref.lock_path(path, 10.0, amounts=amounts)
        assert_stores_identical(vec, ref.network)
        # The per-hop loop's visible scars are reproduced: attempted value
        # counted on the rolled-back hops, one refund each, no net funds.
        store = vec.state_store
        assert store.sent[0, 0] > 0.0
        assert store.num_refunded[0] == 1
        assert store.num_refunded[1] == 1
        assert store.num_refunded[2] == 0
        vec.check_invariants()

    def test_frozen_mid_hop_rejects_all_or_nothing(self):
        vec, ref = self.build(), ReferencePathOps(self.build())
        vec.channel(1, 2).freeze()
        ref.network.channel(1, 2).freeze()
        with pytest.raises(InsufficientFundsError):
            compiled.lock(vec, (0, 1, 2), 5.0)
        with pytest.raises(InsufficientFundsError):
            ref.lock_path((0, 1, 2), 5.0)
        assert_stores_identical(vec, ref.network)

    @pytest.mark.parametrize("veto", ["dust", "fee-budget", "rollback", "frozen"])
    def test_compiled_send_vetoes_match_reference(self, veto):
        """Each way the send core declines a unit, against the oracle:
        dust and the fee budget write nothing, a short last hop and a
        frozen middle hop leave the rollback's scars."""
        vec, ref = self.build(), ReferencePathOps(self.build())
        path, offer, max_fee = (0, 1, 2, 3), 10.0, None
        if veto == "dust":
            offer = 5e-4
        elif veto == "fee-budget":
            path, max_fee = (0, 1, 2), 0.5  # the (1, 2) hop charges 1.5
        elif veto == "frozen":
            path = (0, 1, 2)
            vec.channel(1, 2).freeze()
            ref.network.channel(1, 2).freeze()
        session = _send_session(vec)
        payment = Payment(1, 0, path[-1], 20.0, 0.0, max_fee=max_fee)
        cpath = vec.path_table.compile(path)
        assert session.send_compiled(payment, cpath, offer) is False
        assert (
            ref.send_unit(
                path, offer, remaining=20.0, mtu=math.inf, min_unit=1e-3,
                max_fee=max_fee,
            )
            is None
        )
        assert payment.inflight == 0.0 and not session._resolve_batches
        assert_stores_identical(vec, ref.network)
        scarred = vec.state_store.num_refunded.any()
        assert scarred == (veto in ("rollback", "frozen"))

    def test_non_finite_send_raises_and_writes_nothing(self):
        vec, ref = self.build(), ReferencePathOps(self.build())
        session = _send_session(vec)
        payment = Payment(1, 0, 3, 20.0, 0.0)
        cpath = vec.path_table.compile((0, 1, 2, 3))
        with pytest.raises(ChannelError, match="positive and finite"):
            session.send_compiled(payment, cpath, math.nan)
        with pytest.raises(ChannelError, match="positive and finite"):
            ref.send_unit(
                (0, 1, 2, 3), math.nan, remaining=20.0, mtu=math.inf, min_unit=1e-3
            )
        assert payment.inflight == 0.0 and not session._resolve_batches
        assert_stores_identical(vec, ref.network)


class TestHopAvailability:
    """Per-hop availability and ``unfunded_hop``, pinned on a 4-node line
    whose hops hold 50, 30 and 20 spendable."""

    PATH = (0, 1, 2, 3)

    def network(self) -> PaymentNetwork:
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0, balance_u=30.0)
        network.add_channel(2, 3, 100.0, balance_u=20.0)
        return network

    def test_availabilities_are_per_hop_and_zero_when_frozen(self):
        network = self.network()
        table, store = network.path_table, network.state_store

        def availabilities(path):
            return store.availability(table.compile(path).dirs).tolist()

        assert availabilities(self.PATH) == [50.0, 30.0, 20.0]
        assert availabilities(self.PATH[::-1]) == [80.0, 70.0, 50.0]
        network.channel(1, 2).freeze()
        assert availabilities(self.PATH) == [50.0, 0.0, 20.0]

    @pytest.mark.parametrize("short", range(3))
    def test_unfunded_hop_names_the_first_short_hop(self, short):
        table = self.network().path_table
        amounts = [15.0, 15.0, 15.0]
        amounts[short] = [50.0, 30.0, 20.0][short] + 2e-9
        amounts[-1] = max(amounts[-1], 25.0)  # a later short hop is not named
        assert table.unfunded_hop(table.compile(self.PATH), amounts) == short

    def test_funded_path_within_tolerance_has_no_unfunded_hop(self):
        table = self.network().path_table
        cpath = table.compile(self.PATH)
        assert table.unfunded_hop(cpath, [50.0, 30.0, 20.0 + 5e-10]) is None


class TestLockLifecycle:
    def network(self) -> PaymentNetwork:
        network = PaymentNetwork()
        network.add_channel(0, 1, 100.0)
        network.add_channel(1, 2, 100.0)
        return network

    def test_batched_flush_resolves_every_lock(self):
        """Units maturing on one tick resolve through one
        ``_flush_resolutions`` batch, which marks every unit resolved, so
        none of them can be resolved again afterwards."""
        records = [
            TransactionRecord(i, 1.0, source, dest, 5.0)
            for i, (source, dest) in enumerate([(0, 3), (3, 0), (1, 4), (4, 1)])
        ]
        network = line_topology(5).build_network(default_capacity=100.0)
        session = SimulationSession(
            network, records, make_scheme("shortest-path"), RuntimeConfig()
        )
        batches = []
        flush = session._flush_resolutions

        def recording(tick):
            batches.append(list(session._resolve_batches[tick]))
            flush(tick)

        session._flush_resolutions = recording
        session.run()
        assert [len(units) for units in batches] == [4]
        assert all(unit.state is UnitState.SETTLED for unit in batches[0])
        unit = batches[0][0]
        with pytest.raises(PaymentError, match="already resolved"):
            session._resolve_unit(unit)

    def test_degenerate_single_node_path_in_batch(self):
        """A set holding a hopless path has no probe handle (the dispatch
        plan keeps no handle for it); the path alone probes as ``inf``."""
        table = self.network().path_table
        assert table.probe_handle([(0, 1, 2), (1,)]) is None
        assert table.probe_handle([(0, 1, 2), (1,)]) is None  # memoised
        assert table.bottleneck(table.compile((1,))) == float("inf")

    def test_validation_errors_match_reference_types(self):
        from repro.errors import TopologyError

        network, ref = self.network(), ReferencePathOps(self.network())
        table = network.path_table
        for path, error in (
            ([], ChannelError),
            ([0, 2], TopologyError),
            ([0, 9], TopologyError),
            ([0, 1, 0], ChannelError),
        ):
            with pytest.raises(error):
                table.compile(path)
            with pytest.raises(error):
                ref.bottleneck(path)
        with pytest.raises(ChannelError):
            compiled.lock(network, [0], 1.0)
        with pytest.raises(ChannelError):
            ref.lock_path([0], 1.0)
        assert table.bottleneck(table.compile([0])) == float("inf")
        assert ref.bottleneck([0]) == float("inf")


# ----------------------------------------------------------------------
# Fee-inclusive deliverable value
# ----------------------------------------------------------------------
def _route(edges, source, dest):
    """A fewest-hop node path from ``source`` to ``dest`` (``None`` if
    none), by breadth-first search over ``edges``."""
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    parent = {source: None}
    frontier = [source]
    while frontier and dest not in parent:
        nxt = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if dest not in parent:
        return None
    path = [dest]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _deliverable_topologies():
    from repro.experiments.config import build_topology

    return {name: build_topology(name) for name in ("line-5", "ripple-small")}


_DELIVERABLE_TOPOLOGIES = _deliverable_topologies()

#: One path channel's draw: capacity, the sender's share of it, base fee,
#: fee rate, frozen.
_hop_draw = st.tuples(
    st.floats(1.0, 1_000.0),
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    st.booleans(),
)


@st.composite
def _fee_path(draw):
    """A ``line-5``/``ripple-small`` network whose channels along one
    drawn path carry drawn capacities, balances, fee schedules and frozen
    flags (every other channel holds 100, evenly split, fee-free), and
    that path's node tuple."""
    name = draw(st.sampled_from(sorted(_DELIVERABLE_TOPOLOGIES)))
    topology = _DELIVERABLE_TOPOLOGIES[name]
    nodes = list(topology.nodes)
    source = draw(st.sampled_from(nodes))
    dest = draw(st.sampled_from([n for n in nodes if n != source]))
    path = _route(topology.edges, source, dest)
    assert path is not None
    fee_free = draw(st.booleans())
    frozen_ok = draw(st.integers(0, 3)) == 0
    hops = {}
    for u, v in zip(path, path[1:]):
        capacity, share, base_fee, fee_rate, frozen = draw(_hop_draw)
        if fee_free:
            base_fee = fee_rate = 0.0
        hops[frozenset((u, v))] = (u, capacity, share, base_fee, fee_rate, frozen_ok and frozen)
    network = PaymentNetwork()
    frozen_channels = []
    for u, v in topology.edges:
        hop = hops.get(frozenset((u, v)))
        if hop is None:
            network.add_channel(u, v, 100.0)
            continue
        sender, capacity, share, base_fee, fee_rate, frozen = hop
        receiver = v if sender == u else u
        channel = network.add_channel(
            sender, receiver, capacity, balance_u=capacity * share,
            base_fee=base_fee, fee_rate=fee_rate,
        )
        if frozen:
            frozen_channels.append(channel)
    for channel in frozen_channels:
        channel.freeze()
    return network, path, bool(frozen_channels)


class TestDeliverable:
    """``PathTable.deliverable`` against the per-hop fee recurrence it
    closes: what it returns fits, and a hair more does not."""

    @settings(max_examples=300, deadline=None)
    @given(_fee_path())
    def test_deliverable_is_the_largest_lockable_value(self, drawn):
        from tests.reference.schemes import path_deliverable

        network, path, has_frozen = drawn
        table = network.path_table
        cpath = table.compile(path)
        value = table.deliverable(cpath)
        avail = network.state_store.availability(cpath.dirs).tolist()
        # The node-tuple twin the waterfilling reference arm prices with.
        assert path_deliverable(network, path) == value
        if cpath.fee_free:
            assert value == table.bottleneck(cpath)
        if has_frozen:
            assert value < RuntimeConfig().min_unit_value

        # A hair more than deliverable leaves some hop unfunded ...
        more = max(value, 0.0) * (1 + 1e-6) + 1e-6
        assert any(
            need > have + 1e-9
            for need, have in zip(cpath.hop_amounts(more), avail)
        )
        with pytest.raises(InsufficientFundsError):
            table.lock_funds(cpath, cpath.hop_amounts(more))
        # ... and deliverable itself fits every hop and locks.
        if value > 0:
            amounts = cpath.hop_amounts(value)
            assert all(need <= have + 1e-9 for need, have in zip(amounts, avail))
            actuals = table.lock_funds(cpath, amounts)
            assert len(actuals) == len(path) - 1

    def test_hopless_path_delivers_anything(self):
        network = PaymentNetwork()
        network.add_channel(0, 1, 10.0)
        table = network.path_table
        assert table.deliverable(table.compile((0,))) == math.inf

    def test_fees_come_off_the_upstream_hops(self):
        """0 → 1 → 2 with 10 spendable on each hop and a 1 + 10 % fee on
        the downstream channel: hop 0 must carry 1.1·x + 1 ≤ 10."""
        network = PaymentNetwork()
        network.add_channel(0, 1, 20.0)
        network.add_channel(1, 2, 20.0, base_fee=1.0, fee_rate=0.1)
        table = network.path_table
        cpath = table.compile((0, 1, 2))
        assert table.bottleneck(cpath) == 10.0
        assert table.deliverable(cpath) == pytest.approx(9.0 / 1.1)
