"""Differential test of the direction-indexed store kernels.

``ChannelStateStore``'s path kernels address a hop by one integer
``d = 2*cid + side`` through 1-D views of the ``(n, 2)`` arrays.
:class:`Reference2D` below is the addressing they replaced — plain
``[cid, side]`` element access, one Python-level operation per hop in array
order — so it is the sequential semantics the kernels must match bit for
bit: application order on repeated directions, the lock-then-rollback side
effects of a failed path lock, and one ``version`` bump per call.  The
per-unit kernels (``lock_path_funds``, ``lock_many``, ``settle_path_funds``,
``refund_path_funds``) are fed what their callers pass — lists of Python
ints and floats — and ``apply_resolution_batch`` its arrays.  The
single-channel mutators (``apply_refund``, the transports' backtrack and
abort refund, and ``touch``) replay against the same reference.

Every op sequence is replayed twice against one store — as built and after
``_grow()``, which re-binds the arrays, so a flat view that outlived its
array would write memory the ``(n, 2)`` readers no longer see and fail the
comparison.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.store import ChannelStateStore
from repro.errors import InsufficientFundsError

_EPS = 1e-9
_ARRAYS = (
    "balance",
    "inflight",
    "sent",
    "settled_flow",
    "num_settled",
    "num_refunded",
    "frozen",
)


class Reference2D:
    """The ``(cid, side)``-addressed store semantics, one hop at a time."""

    def __init__(self, store: ChannelStateStore):
        n = len(store)
        for name in _ARRAYS:
            setattr(self, name, np.array(getattr(store, name)[:n]))
        self.version = store.version

    def _bump(self) -> None:
        self.version += 1

    def availability(self, hops):
        return [
            0.0 if self.frozen[cid] else float(self.balance[cid, side])
            for cid, side in hops
        ]

    def lock_path_funds(self, hops, amounts):
        """Lock hop by hop; on a dry/frozen hop refund the locked prefix."""
        locked = []
        for (cid, side), amount in zip(hops, amounts):
            balance = self.balance[cid, side]
            if self.frozen[cid] or not amount <= balance + _EPS:
                for (pc, ps), actual in zip(hops, locked):
                    self.inflight[pc, ps] -= actual
                    self.balance[pc, ps] += actual
                    self.num_refunded[pc] += 1
                if locked:
                    self._bump()
                return None
            actual = min(amount, balance)
            self.balance[cid, side] -= actual
            self.inflight[cid, side] += actual
            self.sent[cid, side] += actual
            locked.append(actual)
        self._bump()
        return locked

    def try_lock(self, cid, side, amount):
        balance = float(self.balance[cid, side])
        if self.frozen[cid] or amount > balance + _EPS:
            return -1.0
        locked = self.lock_path_funds([(cid, side)], [amount])
        return locked[0]

    def lock_many(self, hops, amounts):
        for (cid, side), amount in zip(hops, amounts):
            self.balance[cid, side] -= amount
            self.inflight[cid, side] += amount
            self.sent[cid, side] += amount
        self._bump()

    def resolve(self, hops, amounts, settled):
        """Settle (credit the receiver) or refund (credit the sender)."""
        for (cid, side), amount, settle in zip(hops, amounts, settled):
            self.inflight[cid, side] -= amount
            if settle:
                self.balance[cid, 1 - side] += amount
                self.settled_flow[cid, side] += amount
                self.num_settled[cid] += 1
            else:
                self.balance[cid, side] += amount
                self.num_refunded[cid] += 1
        self._bump()

    def set_frozen(self, cid, flag):
        self.frozen[cid] = flag
        self._bump()


def _dirs(hops) -> list:
    return [2 * cid + side for cid, side in hops]


def _assert_same(store: ChannelStateStore, ref: Reference2D, context) -> None:
    n = len(store)
    for name in _ARRAYS:
        assert np.array_equal(getattr(store, name)[:n], getattr(ref, name)), (
            name,
            context,
        )
    assert store.version == ref.version, context
    for name in ("balance", "inflight", "sent", "settled_flow"):
        flat = getattr(store, name + "_flat")
        assert np.shares_memory(flat, getattr(store, name)), (name, context)
        assert np.array_equal(flat, getattr(store, name).reshape(-1))


def _apply(store: ChannelStateStore, ref: Reference2D, op) -> None:
    kind, hops, amounts, settled = op
    dirs = _dirs(hops)
    amounts = [float(amount) for amount in amounts]
    if kind == "probe":
        got = store.availability(np.array(dirs, dtype=np.intp))
        assert got.tolist() == ref.availability(hops)
    elif kind == "lock_path":
        expected = ref.lock_path_funds(hops, amounts)
        if expected is None:
            with pytest.raises(InsufficientFundsError):
                store.lock_path_funds(dirs, amounts)
        else:
            got = store.lock_path_funds(dirs, amounts)
            assert got == expected
            assert all(type(actual) is float for actual in got)
    elif kind == "try_lock":
        (cid, side), amount = hops[0], amounts[0]
        assert store.try_lock(2 * cid + side, amount) == ref.try_lock(
            cid, side, amount
        )
    elif kind == "lock_many":
        ref.lock_many(hops, amounts)
        store.lock_many(dirs, amounts)
    elif kind == "settle":
        ref.resolve(hops, amounts, [True] * len(hops))
        store.settle_path_funds(dirs, amounts)
    elif kind == "refund":
        ref.resolve(hops, amounts, [False] * len(hops))
        store.refund_path_funds(dirs, amounts)
    elif kind == "apply_refund":
        (cid, side), amount = hops[0], amounts[0]
        ref.resolve([(cid, side)], [amount], [False])
        store.apply_refund(cid, side, amount)
    elif kind == "touch":
        ref._bump()
        store.touch(hops[0][0])
    elif kind == "resolve_batch":
        ref.resolve(hops, amounts, settled)
        store.apply_resolution_batch(
            np.array(dirs, dtype=np.intp),
            np.array(amounts, dtype=np.float64),
            np.array(settled, dtype=bool),
        )
    else:  # freeze / unfreeze the first hop's channel
        cid = hops[0][0]
        ref.set_frozen(cid, settled[0])
        store.set_frozen(cid, settled[0])


_STAGES = ("built", "grown")


def _replay_through_rebinds(store: ChannelStateStore, ops) -> None:
    """Run ``ops`` once per array binding the store can be in."""
    ref = Reference2D(store)
    for stage in _STAGES:
        if stage == "grown":
            store._grow()
        _assert_same(store, ref, stage)
        for index, op in enumerate(ops):
            _apply(store, ref, op)
            _assert_same(store, ref, (stage, index, op[0]))


_TRAIL_OPS = ("lock_path", "settle", "refund")
_BATCH_OPS = ("probe", "try_lock", "lock_many", "resolve_batch", "freeze")
_SCALAR_OPS = ("apply_refund", "touch")
_amount = st.floats(min_value=0.001, max_value=40.0, allow_nan=False)


@st.composite
def _scenario(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    channels = [
        (capacity, capacity * draw(st.floats(min_value=0.0, max_value=1.0)))
        for capacity in draw(
            st.lists(
                st.floats(min_value=1.0, max_value=100.0), min_size=n, max_size=n
            )
        )
    ]
    hop = st.tuples(st.integers(0, n - 1), st.integers(0, 1))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(_TRAIL_OPS + _BATCH_OPS + _SCALAR_OPS))
        if kind in _TRAIL_OPS:
            # A trail crosses each channel at most once.
            cids = draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            )
            hops = [(cid, draw(st.integers(0, 1))) for cid in cids]
        else:
            hops = draw(st.lists(hop, min_size=1, max_size=9))
        amounts = draw(st.lists(_amount, min_size=len(hops), max_size=len(hops)))
        settled = draw(st.lists(st.booleans(), min_size=len(hops), max_size=len(hops)))
        ops.append((kind, hops, amounts, settled))
    return channels, ops


@settings(max_examples=60, deadline=None)
@given(_scenario())
def test_flat_kernels_match_the_2d_reference(scenario):
    channels, ops = scenario
    store = ChannelStateStore(reserve=len(channels))  # full: _grow() doubles
    for capacity, balance_a in channels:
        store.allocate(capacity, balance_a)
    _replay_through_rebinds(store, ops)


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("failing", range(5))
def test_path_lock_failure_at_every_hop_rolls_back_like_the_loop(failing, frozen):
    """A 5-hop lock that fails at hop ``failing`` (dry, or frozen): the
    prefix's balance/inflight round-trips, its ``sent`` growth and refund
    ticks, and the untouched suffix all match the hop-by-hop reference."""
    store = ChannelStateStore()
    for cid in range(5):
        store.allocate(10.0 + cid, 3.3 + 0.7 * cid)
    hops = [(cid, cid % 2) for cid in range(5)]
    amounts = [float(store.balance[cid, side]) * 0.37 for cid, side in hops]
    if frozen:
        store.set_frozen(failing, True)
    else:
        amounts[failing] = float(store.balance[hops[failing]]) + 1.0
    _replay_through_rebinds(store, [("lock_path", hops, amounts, None)])
    assert store.num_refunded[:5].tolist() == (
        [len(_STAGES)] * failing + [0] * (5 - failing)
    )
    assert store.inflight_view.sum() == pytest.approx(0.0, abs=1e-12)


def _line_store(n: int = 5) -> ChannelStateStore:
    store = ChannelStateStore()
    for cid in range(n):
        store.allocate(10.0 + cid, 3.3 + 0.7 * cid)
    return store


def test_lock_many_applies_repeated_directions_in_order():
    """Several units of one cohort crossing the same hops: each repeat
    lands on the running value, in list order, as the per-send loop does
    (amounts chosen so a different summation order changes the bits)."""
    store = _line_store()
    hops = [(1, 0), (2, 1), (1, 0), (1, 0), (2, 1), (0, 0)]
    amounts = [0.1, 1e-17, 0.2, 0.3, 2.0**-60, 1.0 / 3.0]
    _replay_through_rebinds(store, [("lock_many", hops, amounts, None)])


@pytest.mark.parametrize("kind", _SCALAR_OPS)
def test_single_channel_mutators_match_the_2d_reference(kind):
    """Each channel-view mutator, twice on one row and once on another,
    moves exactly the reference's rows and bumps the version once per
    call."""
    store = _line_store()
    ops = [
        (kind, [(2, 1)], [1.25], None),
        (kind, [(2, 1)], [0.1], None),
        (kind, [(4, 0)], [1.0 / 3.0], None),
    ]
    _replay_through_rebinds(store, ops)
    assert store.version == 2 * len(ops)


@pytest.mark.parametrize("failing", range(5))
def test_list_fed_kernels_after_a_failed_lock_at_every_hop(failing):
    """A path lock that runs dry at hop ``failing``, then the full lock,
    its settle/refund halves and a cohort lock repeating two hops: the
    list-fed kernels match the reference after each call."""
    store = _line_store()
    hops = [(cid, cid % 2) for cid in range(5)]
    amounts = [float(store.balance[cid, side]) * 0.37 for cid, side in hops]
    short = list(amounts)
    short[failing] = float(store.balance[hops[failing]]) + 1.0
    ops = [
        ("lock_path", hops, short, None),
        ("lock_path", hops, amounts, None),
        ("settle", hops[:3], amounts[:3], None),
        ("refund", hops[3:], amounts[3:], None),
        ("lock_many", hops + hops[:2], amounts + amounts[:2], None),
    ]
    _replay_through_rebinds(store, ops)
    assert store.num_settled[:5].tolist() == [len(_STAGES)] * 3 + [0] * 2
