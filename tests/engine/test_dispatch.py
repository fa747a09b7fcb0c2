"""Dispatch parity tests: handle attempts ⇔ node-tuple reference attempts.

The :class:`~repro.engine.dispatch.DispatchPlan` runs every scheme's own
``attempt`` per payment, in cohort order.  Waterfilling and the
spider-window launch loop decide on the pair's compiled handle
(``session.path_handle``); their reference is the same decision rule
written over node tuples (:mod:`tests.reference.schemes`), swapped onto
the same scheme in an otherwise identical session.  The atomic schemes
lock compiled shares through ``session.send_atomic``; their reference
arm locks the same shares as node tuples with per-hop store arithmetic
(``tests.reference.schemes.send_atomic``).  The tests here pin
the two arms byte-for-byte on serialised metrics — and, below the
metrics, bit for bit on the final store arrays — across the regimes that
matter: shared-channel cohorts, fee-bearing and frozen topologies, a
network where only some channels charge fees, and resolution flushes
landing on the same tick as the poll that relocks the released funds.

The bulk-scheduling substrate gets its own order pins:
:meth:`TickEngine.schedule_many` must pop identically to repeated scalar
pushes, and :meth:`PendingHeap.add_many` must drain identically to
repeated :meth:`add` calls.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.core.payments import Payment
from repro.core.scheduling import PendingHeap, get_policy
from repro.engine.events import TickEngine
from repro.engine.session import SimulationSession
from repro.experiments.config import ExperimentConfig
from repro.metrics.report import metrics_to_json
from repro.errors import InsufficientFundsError
from repro.workload.generator import TransactionRecord
from tests.reference.schemes import use_reference_attempt

#: A fee schedule on every channel: what makes eager locks bounce.
FEES = dict(base_fee=0.01, fee_rate=0.001, max_fee_fraction=0.25)

#: The schemes whose ``attempt`` decides on compiled handles, each with
#: the config overrides of its busiest regime (waterfilling where every
#: channel charges a fee); the parity tests sweep exactly these.
HANDLE_SCHEMES = {
    "spider-waterfilling": FEES,
    "spider-window": {},
}

#: The atomic schemes: each locks its shares through ``send_atomic``.
ATOMIC_SCHEMES = ["lnd", "max-flow", "silentwhispers", "speedymurmurs", "spider-amp"]


def _config(**overrides):
    base = dict(
        scheme="spider-waterfilling",
        topology="line-5",
        capacity=200.0,
        num_transactions=250,
        arrival_rate=50.0,
        seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


#: The store state a lock, settle or refund can move — what "the same
#: run" means below the metrics JSON.
STORE_ARRAYS = (
    "balance",
    "inflight",
    "sent",
    "settled_flow",
    "num_settled",
    "num_refunded",
)


def _store_arrays(store):
    return {name: getattr(store, name)[: len(store)].copy() for name in STORE_ARRAYS}


def _assert_same_store(fast, slow):
    for name in STORE_ARRAYS:
        assert np.array_equal(fast[name], slow[name]), name


def _session(config, reference=False, mutate=None):
    """A session for ``config``; ``reference=True`` makes the scheme decide
    through its node-tuple reference attempt.

    ``mutate(network)`` runs after the network is built and before the
    session starts — both arms apply the identical mutation because the
    inputs are rebuilt from the config seed each time.
    """
    network, records, scheme = config.build_simulation_inputs()
    if reference:
        use_reference_attempt(scheme)
    if mutate is not None:
        mutate(network)
    return SimulationSession(network, records, scheme, config.build_runtime_config())


def _run(config, reference, mutate=None):
    """Serialised metrics, final store arrays and dispatch counters of one
    session run."""
    session = _session(config, reference, mutate)
    metrics = session.run()
    return (
        metrics_to_json(metrics).encode(),
        _store_arrays(session.network.state_store),
        session.dispatch_stats(),
    )


def _assert_modes_agree(config, mutate=None):
    """Handle attempts and reference attempts: same metrics bytes, same
    store bits, same dispatch counters (failed locks included)."""
    fast_json, fast_store, fast_stats = _run(config, reference=False, mutate=mutate)
    slow_json, slow_store, slow_stats = _run(config, reference=True, mutate=mutate)
    assert fast_stats["cohorts"] > 0
    assert fast_stats == slow_stats
    assert fast_json == slow_json
    _assert_same_store(fast_store, slow_store)


@pytest.mark.parametrize("scheme", HANDLE_SCHEMES)
@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_dispatch_modes_byte_identical(scheme, topology):
    """Handle attempts and reference attempts serialise identically.

    ``line-5`` forces every pair through shared channels (constant
    mid-cohort conflicts); ``ripple-small`` gives channel-disjoint path
    sets real coverage.
    """
    _assert_modes_agree(
        _config(
            scheme=scheme,
            topology=topology,
            num_transactions=150,
            **HANDLE_SCHEMES[scheme],
        )
    )


@pytest.mark.parametrize("scheme", [*HANDLE_SCHEMES, *ATOMIC_SCHEMES])
def test_dispatch_parity_with_random_fees_and_frozen_channels(scheme):
    """Fee-bearing hops and frozen channels decide byte-identically.

    A proportional fee schedule plus a seeded random set of frozen
    channels pushes the regimes a handle attempt must match — the reverse
    fee recurrence, frozen-hop availability masking and locks that bounce
    mid-attempt — and the two arms must still agree byte for byte.
    """
    import random

    def freeze_some(network):
        rng = random.Random(99)
        channels = list(network.channels())
        for channel in rng.sample(channels, max(1, len(channels) // 8)):
            channel.freeze()

    config = _config(
        scheme=scheme, topology="ripple-small", num_transactions=150, **FEES
    )
    _assert_modes_agree(config, mutate=freeze_some)


@pytest.mark.parametrize("scheme", [*HANDLE_SCHEMES, *ATOMIC_SCHEMES])
def test_dispatch_parity_fee_bearing_shared_channels(scheme):
    """Shared-channel path sets with fees decide byte-identically.

    ``line-5`` forces every pair through the same channels, so each
    cohort is one big conflict group: every payment's attempt must read
    the capacities left by the payments before it, with per-hop
    fee-inclusive amounts.
    """
    config = _config(scheme=scheme, topology="line-5", num_transactions=150, **FEES)
    _assert_modes_agree(config)


def test_dispatch_parity_where_only_some_channels_charge_fees():
    """A network where an eighth of the channels charge a fee: the path
    sets that avoid every fee-charging channel and the ones that cross
    one decide through the same attempt.  Both arms agree byte for byte,
    and the run really held both kinds of path set."""
    import random

    def charge_some(network):
        rng = random.Random(5)
        channels = list(network.channels())
        for channel in rng.sample(channels, len(channels) // 8):
            channel.base_fee = 0.01
            channel.fee_rate = 0.001

    config = _config(
        topology="ripple-small", num_transactions=150, max_fee_fraction=0.25
    )
    _assert_modes_agree(config, mutate=charge_some)
    session = _session(config, mutate=charge_some)
    session.run()
    handles = session._dispatch._handles[session.scheme.num_paths].values()
    fee_free = [
        all(cpath.fee_free for cpath in handle.cpaths)
        for handle in handles
        if handle is not None
    ]
    assert any(fee_free) and not all(fee_free)


@pytest.mark.parametrize("topology", ["line-5", "ripple-small", "isp"])
@pytest.mark.parametrize("scheme", HANDLE_SCHEMES)
def test_mid_cohort_conflicts_decide_like_the_reference(scheme, topology):
    """Fee-bearing cohorts whose pairs share channels decide like the
    reference, on three topologies with more room to fill.

    Every payment's attempt reads what the attempts before it in the same
    cohort locked — fee-inclusive per-hop amounts, fee-budget vetoes and
    bounced locks included.  The counters come through the session's
    ``dispatch_stats`` accessor from the plan and the send core.
    """
    config = _config(
        scheme=scheme,
        topology=topology,
        num_transactions=150,
        capacity=400.0,
        seed=1,
        **FEES,
    )
    _assert_modes_agree(config)
    session = _session(config)
    session.run()
    plan = session._dispatch
    stats = session.dispatch_stats()
    assert stats == {
        "cohorts": plan.cohorts,
        "cohort_payments": plan.cohort_payments,
        "batched_units": 0,
        "scalar_fallbacks": 0,
        "failed_locks": session._failed_locks,
    }
    assert stats["cohort_payments"] >= stats["cohorts"] > 0


#: Hand-built cohorts on the fee-bearing line, where every pair shares
#: channels (100 spendable per direction): the first payment takes 60 off
#: every hop it crosses and the ones after it must decide on what is left.
_SHARED_CHANNEL_COHORTS = {
    "spider-waterfilling": [(0, 4, 60.0), (1, 3, 30.0), (0, 4, 60.0), (2, 4, 30.0)],
    "spider-window": [(0, 4, 60.0), (0, 3, 30.0), (0, 4, 60.0)],
}


@pytest.mark.parametrize("scheme", HANDLE_SCHEMES)
def test_shared_channel_cohort_reads_the_locks_before_it(scheme):
    """One cohort of payments over shared channels, through the cohort
    driver on handles and through reference attempts one by one: the
    store ends bit for bit in the same place, and the later payments
    really found less than the first one."""
    config = _config(scheme=scheme, topology="line-5", num_transactions=40, **FEES)
    fast = _prepared(config)
    slow = _prepared(config, reference=True)
    cohort = [
        TransactionRecord(900 + i, 0.0, source, dest, amount)
        for i, (source, dest, amount) in enumerate(_SHARED_CHANNEL_COHORTS[scheme])
    ]
    fast_payments = [fast._new_payment(*astuple(record)) for record in cohort]
    fast._dispatch.attempt_cohort(fast_payments)
    slow_payments = [slow._new_payment(*astuple(record)) for record in cohort]
    for payment in slow_payments:
        slow.scheme.attempt(payment, slow)
    assert [p.inflight for p in fast_payments] == [p.inflight for p in slow_payments]
    assert fast_payments[0].inflight > fast_payments[2].inflight
    assert fast.dispatch_stats()["failed_locks"] == slow.dispatch_stats()["failed_locks"]
    _assert_same_store(
        _store_arrays(fast.network.state_store),
        _store_arrays(slow.network.state_store),
    )


@pytest.mark.parametrize("scheme", HANDLE_SCHEMES)
def test_pair_without_a_path_fails_like_the_reference(scheme):
    """A pair with no path between its nodes has no handle: its attempt
    fails the payment and moves nothing, as the reference does, while the
    connected pair in the same run still routes."""
    from repro.routing.registry import make_scheme
    from repro.topology.base import Topology

    topology = Topology(
        name="two-lines", nodes=[0, 1, 2, 3, 4], edges=[(0, 1), (1, 2), (3, 4)]
    )
    records = [
        TransactionRecord(0, 0.1, 0, 4, 5.0),
        TransactionRecord(1, 0.2, 0, 2, 5.0),
    ]
    runs = []
    for reference in (False, True):
        scheme_obj = make_scheme(scheme)
        if reference:
            use_reference_attempt(scheme_obj)
        session = SimulationSession(
            topology.build_network(default_capacity=100.0), records, scheme_obj
        )
        metrics = session.run()
        runs.append((session, metrics_to_json(metrics).encode()))
    (fast, fast_json), (slow, slow_json) = runs
    assert fast_json == slow_json
    assert fast.path_handle(0, 4, fast.scheme.num_paths) is None
    lost, routed = fast.payments[0], fast.payments[1]
    assert lost.is_terminal and lost.delivered == 0.0 and lost.units_sent == 0
    assert routed.delivered > 0
    _assert_same_store(
        _store_arrays(fast.network.state_store),
        _store_arrays(slow.network.state_store),
    )


def _stats(**overrides):
    config = _config(num_transactions=150, **overrides)
    session = SimulationSession.from_config(config)
    session.run()
    return session.dispatch_stats()


def test_failed_locks_tell_the_fee_regime_apart():
    """Max-flow sizes its atomic shares off raw balances, so on fee-bearing
    ``ripple-small`` the fee-loaded upstream hops need more than they hold
    and some share locks bounce.  The source-routed non-atomic schemes
    offer what a path delivers with its fees included
    (``PathTable.deliverable``), so no lock of theirs bounces — with fees
    on the line and on ``ripple-small``, or with none at all."""
    fee_network = dict(topology="ripple-small", **FEES)
    assert _stats(scheme="max-flow", **fee_network)["failed_locks"] > 0
    for scheme in ("shortest-path", "spider-lp", "spider-primal-dual"):
        assert _stats(scheme=scheme, **fee_network)["failed_locks"] == 0, scheme
    for topology in ("line-5", "ripple-small"):
        fees = _stats(topology=topology, **FEES)
        assert fees["cohorts"] > 0
        assert fees["failed_locks"] == 0, topology
    free = _stats(topology="ripple-small")
    assert free["cohorts"] > 0
    assert free["failed_locks"] == 0


def test_failed_locks_count_the_bounces_in_the_send_core(monkeypatch):
    """``failed_locks`` is every ``InsufficientFundsError`` that
    :meth:`PathTable.lock_funds` raises inside the send core.

    On fee-bearing ``ripple-small`` max-flow sizes its atomic shares off
    raw balances and the fee-loaded upstream hops then need more than they
    hold, so share locks bounce; the counter equals the raises counted at
    the source.
    """
    from repro.engine.pathtable import PathTable

    raised = []
    lock_funds = PathTable.lock_funds

    def counting(self, cpath, amounts):
        try:
            return lock_funds(self, cpath, amounts)
        except InsufficientFundsError:
            raised.append(cpath)
            raise

    monkeypatch.setattr(PathTable, "lock_funds", counting)
    config = _config(
        scheme="max-flow", topology="ripple-small", num_transactions=150, **FEES
    )
    session = SimulationSession.from_config(config)
    session.run()
    stats = session.dispatch_stats()
    assert stats["failed_locks"] == len(raised) > 0
    assert stats["batched_units"] == stats["scalar_fallbacks"] == 0


def test_bounced_last_share_leaves_the_payment_as_it_was():
    """An atomic send whose last share bounces mid-path refunds the shares
    locked before it: the funds arrays end bit for bit where they started
    (only the attempt counters ``sent``/``num_refunded`` record the
    try), the payment's in-flight and remaining value are untouched, the
    pending order is unchanged, no unit is booked — and the node-tuple
    reference arm ends on the same store bits and counts the same bounce."""
    from repro.network.network import PaymentNetwork
    from repro.routing.registry import make_scheme
    from tests.reference.schemes import send_atomic

    def build():
        network = PaymentNetwork()
        for u, v in [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3)]:
            network.add_channel(u, v, 100.0)
        network.add_channel(3, 4, 100.0, balance_u=5.0)  # the last share's hop 1
        records = [TransactionRecord(0, 1.0, 0, 4, 60.0)]
        session = SimulationSession(network, records, make_scheme("max-flow"))
        payment = session._new_payment(*astuple(records[0]))
        session._pending.add(payment)
        paths = [(0, 1, 4), (0, 2, 4), (0, 3, 4)]
        shares = [(network.path_table.compile(p), 20.0) for p in paths]
        return session, payment, shares

    runs = []
    for send in (SimulationSession.send_atomic, send_atomic):
        session, payment, shares = build()
        store = session.network.state_store
        before = _store_arrays(store)
        pending = list(session._pending.ordered())
        assert send(session, payment, shares) is False
        after = _store_arrays(store)
        for name in ("balance", "inflight", "settled_flow", "num_settled"):
            assert np.array_equal(after[name], before[name]), name
        # Two locked shares' two hops each, and the bounced share's hop 0.
        assert after["num_refunded"].sum() == 5
        assert (payment.inflight, payment.remaining) == (0.0, 60.0)
        assert list(session._pending.ordered()) == pending
        assert not session._resolve_batches
        assert session.dispatch_stats()["failed_locks"] == 1
        runs.append(after)
    _assert_same_store(*runs)


@pytest.mark.parametrize(
    "scheme", ["spider-waterfilling", "spider-window", "shortest-path"]
)
def test_prime_warms_the_sequential_path(scheme, monkeypatch):
    """``prepare`` compiles every path the trace routes over and holds one
    probe handle per path set; the run then compiles no path and builds no
    probe of its own.  The scheme's ``attempt`` works off those handles:
    no ``PathTable.compile`` call (not even a memo hit) and no path-set
    lookup through the path service during the run."""
    from repro.engine.pathservice import PersistentCache
    from repro.engine.pathtable import PathTable

    config = _config(scheme=scheme, topology="ripple-small", num_transactions=150)
    session = _prepared(config)
    table = session.network.path_table
    compiled, probes = len(table._compiled), len(table._probes)
    handles = session._dispatch._handles[session.scheme.num_paths]
    primed = dict(handles)
    pairs = {(record.source, record.dest) for record in session.records}
    assert set(primed) == pairs
    calls = {"compile": 0, "lookup": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in ("compile", "compile_columns"):
        monkeypatch.setattr(PathTable, name, counted("compile", getattr(PathTable, name)))
    for name in ("paths", "columns"):
        monkeypatch.setattr(
            PersistentCache, name, counted("lookup", getattr(PersistentCache, name))
        )
    session.run()
    assert (len(table._compiled), len(table._probes)) == (compiled, probes)
    assert handles == primed and all(
        handles[pair] is handle for pair, handle in primed.items()
    )
    assert any(payment.delivered > 0 for payment in session.payments.values())
    assert calls == {"compile": 0, "lookup": 0}


#: Bytes :meth:`DispatchPlan.prime` keeps per primed path on the warm
#: ``ripple-small`` session below (1874 pairs, 6643 paths): 354 measured —
#: a :class:`CompiledPath`, its ``dir_list`` slice, its share of the arena
#: columns and of its pair's handle.  The bound leaves 46 bytes of
#: margin; keeping a node tuple per path reads 437, a NumPy view per
#: path 474.
PRIMED_BYTES_PER_PATH = 400


def test_prime_keeps_no_per_path_tuples_or_views(tmp_path, monkeypatch):
    """Priming a warm session — every pair set loaded from the artifact —
    keeps a few hundred bytes per path: no node tuple, no NumPy view."""
    import tracemalloc

    from repro.engine.dispatch import DispatchPlan
    from repro.engine.pathservice import PersistentCache

    config = _config(topology="ripple-small", num_transactions=2000, seed=5)
    SimulationSession.from_config(config, path_cache_dir=str(tmp_path)).prepare()
    PersistentCache.clear_shared()
    session = SimulationSession.from_config(config, path_cache_dir=str(tmp_path))
    session.network.direction_index()  # per network, not per path
    prime = DispatchPlan.prime
    kept = []

    def measured(self, pairs):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prime(self, pairs)
            kept.append(tracemalloc.get_traced_memory()[0] - before)
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(DispatchPlan, "prime", measured)
    session.prepare()
    PersistentCache.clear_shared()
    handles = session._dispatch._handles[session.scheme.num_paths]
    paths = sum(len(handle.cpaths) for handle in handles.values() if handle)
    assert (len(handles), paths) == (1874, 6643)
    assert kept[0] / paths < PRIMED_BYTES_PER_PATH


@pytest.mark.parametrize(
    "scheme",
    ["spider-waterfilling", "spider-window", "shortest-path", "lnd", "spider-amp"],
)
def test_cohort_counters_count_every_attempt(scheme):
    """``cohort_payments`` is every attempt the session made, for every
    kind of scheme; nothing is batched or falls back, so those two
    counters read 0."""
    config = _config(scheme=scheme, topology="ripple-small", num_transactions=150)
    session = _session(config)
    session.run()
    stats = session.dispatch_stats()
    attempts = sum(payment.attempts for payment in session.payments.values())
    assert stats["cohort_payments"] == attempts > 0
    assert 0 < stats["cohorts"] <= attempts
    assert stats["batched_units"] == stats["scalar_fallbacks"] == 0


def _prepared(config, reference=False):
    session = _session(config, reference)
    session.prepare()
    return session


@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_window_attempts_read_no_probe(monkeypatch, topology):
    """The window attempt reads first hops straight from the store and
    never a probe value, so a run refreshes and probes no path set — and
    still matches the reference attempts byte for byte."""
    from repro.engine.pathtable import PathTable

    def refuse(self, *args, **kwargs):
        raise AssertionError("a window attempt probed a path set")

    monkeypatch.setattr(PathTable, "refresh_probes", refuse)
    monkeypatch.setattr(PathTable, "bottleneck_many", refuse)
    _assert_modes_agree(
        _config(scheme="spider-window", topology=topology, num_transactions=150)
    )


@pytest.mark.parametrize("topology", ["line-5", "ripple-small"])
def test_window_cache_matches_reference_windows(topology):
    """The per-pair window cache creates, fills and reads the scheme's
    window states exactly as the reference attempts do: the same
    ``window_snapshot()`` — keys in the same creation order, same window
    values — and every cached state is the scheme's own object, aligned
    with the pair handle's compiled paths."""
    config = _config(scheme="spider-window", topology=topology, num_transactions=150)
    fast = _session(config)
    fast.run()
    slow = _session(config, reference=True)
    slow.run()
    fast_windows = fast.scheme.window_snapshot()
    assert list(fast_windows.items()) == list(slow.scheme.window_snapshot().items())
    cached = fast.scheme._pair_windows
    assert cached
    for (source, dest), windows in cached.items():
        cpaths = fast.path_handle(source, dest, fast.scheme.num_paths).cpaths
        assert len(windows) == len(cpaths)
        for cpath, state in zip(cpaths, windows):
            assert fast.scheme.window(cpath) is state


def test_window_headroom_is_recomputed_like_the_scheme():
    """After each launch the attempt's headroom is ``window - inflight``
    again, not a running ``headroom - amount``: with a 1.0 window and a
    0.3 MTU the two part at the fourth launch (0.10000000000000009 vs
    0.09999999999999998), and the handle attempt's launches must land on
    the reference attempt's bits."""
    config = _config(scheme="spider-window", topology="line-5", num_transactions=1, mtu=0.3)
    arms = [_prepared(config), _prepared(config, reference=True)]
    record = TransactionRecord(900, 0.0, 0, 4, 50.0)
    payments = []
    for session in arms:
        view = session.network.path_service.view(session.scheme.num_paths)
        compile = session.network.path_table.compile
        for path in view.paths(0, 4):
            session.scheme.window(compile(path)).window = 1.0
        payments.append(session._new_payment(*astuple(record)))
    for session, payment in zip(arms, payments):
        session._dispatch.attempt_cohort([payment])
    assert payments[0].inflight == payments[1].inflight == 1.0
    assert arms[0].scheme.window_snapshot() == arms[1].scheme.window_snapshot()
    fast_states = [state.inflight for state in arms[0].scheme._windows.values()]
    slow_states = [state.inflight for state in arms[1].scheme._windows.values()]
    assert fast_states == slow_states
    _assert_same_store(
        _store_arrays(arms[0].network.state_store),
        _store_arrays(arms[1].network.state_store),
    )


def test_window_cache_holds_a_state_created_before_the_first_cohort():
    """A path's window made through ``scheme.window()`` before the pair's
    first cohort is the object the cache holds, and the attempt fills it."""
    config = _config(scheme="spider-window", topology="ripple-small", num_transactions=20)
    session = _prepared(config)
    record = session.records[0]
    view = session.network.path_service.view(session.scheme.num_paths)
    paths = view.paths(record.source, record.dest)
    compile = session.network.path_table.compile
    early = [session.scheme.window(compile(path)) for path in paths]
    early[0].window = 7.5  # a state the cache must not replace
    payment = session._new_payment(*astuple(record))
    session._dispatch.attempt_cohort([payment])
    windows = session.scheme._pair_windows[record.source, record.dest]
    assert all(cached is state for cached, state in zip(windows, early))
    assert early[0].window == 7.5
    assert sum(state.inflight for state in early) == pytest.approx(payment.inflight)
    assert payment.inflight > 0


def test_same_tick_settle_then_lock_ordering():
    """Resolution flushes and polls landing on one tick stay ordered.

    With ``confirmation_delay == poll_interval`` every unit's maturity
    tick coincides with a poll tick, so each poll's cohort relocks value
    released by the same tick's settlement flush.  Handle attempts and
    reference attempts must sequence the two identically.
    """
    config = _config(
        topology="ripple-small",
        num_transactions=200,
        confirmation_delay=0.25,
        poll_interval=0.25,
        **FEES,
    )
    _assert_modes_agree(config)


def test_schedule_many_matches_repeated_scalar_pushes():
    """Bulk trace scheduling pops in exactly the scalar push order."""
    fired_bulk = []
    fired_scalar = []

    def make(engine, out):
        def cb(tag):
            out.append((engine.now_tick, tag))

        return cb

    ticks = [5, 1, 5, 3, 1, 9, 3, 3, 5]
    tags = list(range(len(ticks)))

    scalar_engine = TickEngine()
    cb = make(scalar_engine, fired_scalar)
    for tick, tag in zip(ticks, tags):
        scalar_engine.schedule_at_tick(tick, cb, (tag,))
    scalar_engine.run()

    bulk_engine = TickEngine()
    cb = make(bulk_engine, fired_bulk)
    bulk_engine.schedule_many(ticks, cb, [(tag,) for tag in tags])
    bulk_engine.run()

    assert fired_bulk == fired_scalar
    # Mixed per-event callbacks take the same path.
    mixed_engine = TickEngine()
    seen = []
    mixed_engine.schedule_many(
        [2, 2, 1],
        [lambda: seen.append("a"), lambda: seen.append("b"), lambda: seen.append("c")],
        [(), (), ()],
    )
    mixed_engine.run()
    assert seen == ["c", "a", "b"]


def test_pending_heap_add_many_matches_repeated_add():
    """Bulk registration drains in exactly the repeated-add order."""
    payments = [
        Payment(
            payment_id=pid,
            source=0,
            dest=1,
            amount=amount,
            arrival_time=0.1 * pid,
        )
        for pid, amount in enumerate([5.0, 1.0, 9.0, 1.0, 3.0, 7.0, 2.0])
    ]
    for policy_name in ["srpt", "fifo", "smallest-total"]:
        one_by_one = PendingHeap(get_policy(policy_name))
        for payment in payments:
            one_by_one.add(payment)
        bulk = PendingHeap(get_policy(policy_name))
        bulk.add_many(payments)
        assert bulk.ordered() == one_by_one.ordered()
        # Equivalence must survive interleaving with a standing heap.
        late = Payment(payment_id=99, source=0, dest=1, amount=0.5, arrival_time=9.9)
        one_by_one.add(late)
        bulk.add_many([late])
        assert bulk.ordered() == one_by_one.ordered()


def test_truncated_horizon_still_finishes_clean():
    """An ``end_time`` cutting the trace mid-flight finishes without
    tripping the drain assertions, on handles and on the reference,
    identically."""
    _assert_modes_agree(
        _config(topology="ripple-small", num_transactions=250, end_time=1.5, **FEES)
    )
