"""Transaction trace generation.

Reproduces the paper's workload model (§6.1): Poisson transaction arrivals
where each transaction's *sender* is drawn from an exponential popularity
distribution over nodes, the *receiver* uniformly at random, and the size
from a Ripple-calibrated distribution.

The generator also supports the *demand rotation* extension used by the
Ripple experiments: the paper observes that Ripple's "traffic demands vary
over time", which is what defeats the one-shot Spider-LP scheme.  Setting
``rotation_interval`` re-draws the sender popularity weights every interval,
reproducing that non-stationarity synthetically.

A trace is a :class:`Trace`: six NumPy columns, one row per transaction,
read row by row as :class:`TransactionRecord` views.

Replay contract
---------------
The trace is defined by a scalar loop over one ``numpy.random.Generator``
(``tests/reference/workload.py`` keeps it as the oracle): draw the sender
weights (:func:`~repro.simulator.rng.exponential_weights`), the sizes and
the exponential inter-arrival gaps, then per record, after re-drawing the
weights if a rotation is due, one ``rng.random()`` through the sender CDF
and ``rng.integers(len(nodes))`` repeated while the receiver equals the
sender.  :func:`generate_workload` makes none of those per-record calls.
The generator must be PCG64 (``default_rng``'s bit generator); per
rotation epoch the kernel draws PCG64's raw 64-bit outputs in bulk
(``bit_generator.random_raw``) and replays, in Python ints, what NumPy's
C code does with them:

* ``random()`` is ``next_double``: ``(raw >> 11) * 2**-53``;
* ``integers(count)`` is Lemire's bounded draw on PCG64's buffered
  ``next_uint32`` — a fresh raw serves its low half and keeps its high
  half for the next 32-bit request (the state's ``has_uint32`` /
  ``uinteger``) — rejecting while ``(x * count) mod 2**32`` is below
  ``(2**32 - count) % count`` and returning ``(x * count) >> 32``;
* the receiver redraw needs only whether the receiver equals the sender,
  that is whether ``cdf[receiver - 1] <= u < cdf[receiver]``, so the
  senders themselves are ``searchsorted`` in bulk after the epoch.

After each epoch the generator is stepped back over the raws drawn but not
used (``advance`` by ``2**128`` minus the surplus wraps PCG64's 128-bit
state backwards), so the next epoch's weights are drawn where the scalar
loop draws them; those draws never touch the 32-bit buffer, which is
replayed in Python and written back (``has_uint32``/``uinteger``) at the
end, so a caller-supplied generator is left in the scalar loop's state.  Arrival times are the left-to-right running sum of the gaps
(``np.add.accumulate`` is sequential, so bit for bit the loop's ``now +=
gap``).  ``tests/workload/test_trace_replay.py`` pins the rows and the final
generator state to the oracle, across node counts, rotation intervals,
deadlines and size specs, and the bounded draw against
``Generator.integers`` at counts where rejection is frequent.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.errors import ConfigError
from repro.simulator.rng import SeedLike, exponential_weights, make_rng
from repro.workload.distributions import SizeDistribution, ripple_isp_sizes

__all__ = ["Trace", "TransactionRecord", "WorkloadConfig", "generate_workload"]


@dataclass(frozen=True)
class TransactionRecord:
    """One transaction in a trace: who pays whom, how much, and when.

    ``deadline`` is the absolute time by which the payment must complete;
    ``None`` means "by the end of the simulation" (the paper's setting).
    """

    txn_id: int
    arrival_time: float
    source: int
    dest: int
    amount: float
    deadline: Optional[float] = None


#: One row as Python scalars, in :class:`TransactionRecord` field order.
Row = Tuple[int, float, int, int, float, Optional[float]]

_COLUMNS = ("txn_id", "arrival_time", "source", "dest", "amount", "deadline")
_INT_COLUMNS = ("txn_id", "source", "dest")
#: Rows materialised per step when a trace is iterated.
_ITER_CHUNK = 4096


class Trace(Sequence[TransactionRecord]):
    """A transaction trace held as NumPy columns, one row per transaction.

    ``txn_id``, ``source`` and ``dest`` are ``int64``; ``arrival_time``,
    ``amount`` and ``deadline`` are ``float64``, with NaN in ``deadline``
    where a record has none.  The columns are read-only.  Length, indexing
    and iteration give :class:`TransactionRecord` row views holding Python
    scalars (a slice gives a :class:`Trace`), and a trace compares equal to
    any sequence of the same rows, so code written against a list of
    records reads a trace unchanged; code that consumes a whole trace reads
    the columns.
    """

    __slots__ = _COLUMNS

    txn_id: np.ndarray
    arrival_time: np.ndarray
    source: np.ndarray
    dest: np.ndarray
    amount: np.ndarray
    deadline: np.ndarray

    def __init__(
        self,
        txn_id: Sequence[int],
        arrival_time: Sequence[float],
        source: Sequence[int],
        dest: Sequence[int],
        amount: Sequence[float],
        deadline: Optional[Sequence[float]] = None,
    ):
        if deadline is None:
            deadline = np.full(len(txn_id), np.nan)
        values = (txn_id, arrival_time, source, dest, amount, deadline)
        length = len(txn_id)
        for name, value in zip(_COLUMNS, values):
            dtype = np.int64 if name in _INT_COLUMNS else np.float64
            # A view, so freezing it leaves the caller's array writable.
            column = np.asarray(value, dtype=dtype).view()
            if column.shape != (length,):
                raise ConfigError(
                    f"trace column {name} has shape {column.shape}, expected ({length},)"
                )
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records: Sequence[TransactionRecord]) -> "Trace":
        """The trace of ``records`` (returned as is if it already is one)."""
        if isinstance(records, Trace):
            return records
        rows = list(records)
        return cls(
            [r.txn_id for r in rows],
            [r.arrival_time for r in rows],
            [r.source for r in rows],
            [r.dest for r in rows],
            [r.amount for r in rows],
            [math.nan if r.deadline is None else r.deadline for r in rows],
        )

    def row(self, index: int) -> Row:
        """Row ``index`` as Python scalars, in record field order."""
        deadline = self.deadline.item(index)
        return (
            self.txn_id.item(index),
            self.arrival_time.item(index),
            self.source.item(index),
            self.dest.item(index),
            self.amount.item(index),
            None if deadline != deadline else deadline,
        )

    def sorted_by_arrival(self) -> "Trace":
        """The rows stably sorted by arrival time, like ``sorted(records,
        key=arrival_time)`` (the trace itself when already in order)."""
        arrivals = self.arrival_time
        if bool(np.all(arrivals[1:] >= arrivals[:-1])):
            return self
        return self._take(np.argsort(arrivals, kind="stable"))

    def pair_groups(self, stop: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Group rows ``[0, stop)`` by ``(source, dest)`` pair.

        Returns ``(first, group)``: ``first[g]`` is the row where pair ``g``
        first occurs, with pairs numbered in ascending ``(source, dest)``
        order, and ``group[i]`` is row ``i``'s pair number.
        """
        source, dest = self.source[:stop], self.dest[:stop]
        order = np.lexsort((dest, source))  # stable: a pair's rows keep trace order
        source, dest = source[order], dest[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (source[1:] != source[:-1]) | (dest[1:] != dest[:-1])
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(starts) - 1
        return order[starts], group

    def _take(self, rows: Union[np.ndarray, slice]) -> "Trace":
        return Trace(*(getattr(self, name)[rows] for name in _COLUMNS))

    def __len__(self) -> int:
        return len(self.txn_id)

    @overload
    def __getitem__(self, index: int) -> TransactionRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TransactionRecord, "Trace"]:
        if isinstance(index, slice):
            return self._take(index)
        return TransactionRecord(*self.row(operator.index(index)))

    def __iter__(self) -> Iterator[TransactionRecord]:
        for start in range(0, len(self), _ITER_CHUNK):
            window = slice(start, start + _ITER_CHUNK)
            deadlines = [
                None if d != d else d for d in self.deadline[window].tolist()
            ]
            yield from map(
                TransactionRecord,
                self.txn_id[window].tolist(),
                self.arrival_time[window].tolist(),
                self.source[window].tolist(),
                self.dest[window].tolist(),
                self.amount[window].tolist(),
                deadlines,
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace({len(self)} rows)"


def _check_positive_finite(name: str, value: Optional[float], optional: bool = False) -> None:
    if optional and value is None:
        return
    try:
        valid = 0 < value < math.inf  # type: ignore[operator]
    except TypeError:
        valid = False
    if not valid:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class WorkloadConfig:
    """Parameters of a synthetic workload.

    Attributes
    ----------
    num_transactions:
        Trace length.  The paper uses 200 000 transactions on the ISP
        topology and 75 000 on Ripple; the benchmarks scale these down.
    arrival_rate:
        Poisson arrival rate in transactions/second across the whole
        network.
    size_distribution:
        Sampler for transaction values; defaults to the ISP-calibrated
        truncated lognormal.
    sender_exponential_scale:
        Scale of the exponential node-popularity weights for senders.
    rotation_interval:
        If set, re-draw sender weights every ``rotation_interval`` seconds
        (synthetic non-stationarity; see module docstring).
    deadline:
        Optional relative deadline (seconds after arrival) applied to every
        payment.
    seed:
        RNG seed for full determinism (a ``Generator`` must be PCG64's).

    Every number must be positive and finite, and ``num_transactions`` an
    integer; anything else raises a :class:`ConfigError` naming the field.
    """

    num_transactions: int
    arrival_rate: float
    size_distribution: Optional[SizeDistribution] = None
    sender_exponential_scale: float = 1.0
    rotation_interval: Optional[float] = None
    deadline: Optional[float] = None
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        count = self.num_transactions
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count <= 0:
            raise ConfigError(f"num_transactions must be a positive integer, got {count!r}")
        _check_positive_finite("arrival_rate", self.arrival_rate)
        _check_positive_finite("sender_exponential_scale", self.sender_exponential_scale)
        _check_positive_finite("rotation_interval", self.rotation_interval, optional=True)
        _check_positive_finite("deadline", self.deadline, optional=True)


def generate_workload(nodes: Sequence[int], config: WorkloadConfig) -> Trace:
    """Generate a deterministic transaction trace over ``nodes``.

    Senders follow exponential popularity weights; receivers are uniform
    over the remaining nodes; inter-arrival gaps are exponential with rate
    ``config.arrival_rate`` (a Poisson process).  The per-record draws are
    replayed from PCG64's raw stream (see the module docstring).
    """
    nodes = list(nodes)
    count = len(nodes)
    if count < 2:
        raise ConfigError("need at least two nodes to generate transactions")
    if len(set(nodes)) != count:
        raise ConfigError("nodes must be distinct to generate transactions")
    rng = make_rng(config.seed)
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise ConfigError(
            f"generate_workload replays PCG64's stream; the generator runs "
            f"{type(bitgen).__name__}"
        )
    sizes = config.size_distribution or ripple_isp_sizes()
    total = int(config.num_transactions)
    scale = config.sender_exponential_scale

    sender_cdf = _sender_cdf(count, scale, rng)
    amounts = sizes.sample(rng, total)
    arrivals = np.add.accumulate(rng.exponential(1.0 / config.arrival_rate, size=total))

    senders = np.empty(total, dtype=np.intp)
    receivers = np.empty(total, dtype=np.intp)
    # The 32-bit buffer lives here until the end: the weight draws between
    # epochs (64-bit draws and doubles) never touch it.
    state = bitgen.state
    has_uint32, uinteger = bool(state["has_uint32"]), state["uinteger"]
    bounds = [0, *_rotation_rows(arrivals, config.rotation_interval), total]
    for epoch, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if epoch:
            sender_cdf = _sender_cdf(count, scale, rng)
        if stop == start:
            continue
        drawn: List[int] = []
        take = chain.from_iterable(_raw_chunks(bitgen, stop - start, count, drawn)).__next__
        (
            senders[start:stop],
            receivers[start:stop],
            used,
            has_uint32,
            uinteger,
        ) = _replay_draws(take, sender_cdf, count, stop - start, has_uint32, uinteger)
        surplus = sum(drawn) - used
        if surplus:
            bitgen.advance(2**128 - surplus)  # back to just after the last raw used
    state = bitgen.state
    state["has_uint32"] = int(has_uint32)
    state["uinteger"] = uinteger
    bitgen.state = state

    node_ids = np.asarray(nodes)
    return Trace(
        np.arange(total),
        arrivals,
        node_ids[senders],
        node_ids[receivers],
        amounts,
        None if config.deadline is None else arrivals + config.deadline,
    )


def _rotation_rows(arrivals: np.ndarray, interval: Optional[float]) -> List[int]:
    """Rows at whose arrival the sender weights are re-drawn.

    Row ``r`` re-draws when it arrives at or after ``next_rotation``, which
    then moves on by one ``interval``: at most one re-draw per row, so after
    a gap longer than an interval the next rows keep re-drawing until
    ``next_rotation`` catches up.
    """
    if interval is None:
        return []
    rows: List[int] = []
    next_rotation = interval
    row = 0
    while True:
        row = max(row, int(arrivals.searchsorted(next_rotation, side="left")))
        if row >= len(arrivals):
            return rows
        rows.append(row)
        row += 1
        next_rotation += interval


def _raw_chunks(
    bitgen: np.random.PCG64, rows: int, count: int, drawn: List[int]
) -> Iterator[List[int]]:
    """PCG64 raw outputs as Python ints, appending each chunk's size to
    ``drawn``: enough for ``rows`` records on average first (one for the
    sender, half of ``count / (count - 1)`` for the receivers), then small
    top-ups until the caller stops."""
    size = rows + rows * count // (2 * count - 2) + 16
    while True:
        drawn.append(size)
        yield bitgen.random_raw(size).tolist()
        size = 64 + rows // 16


_LOW32 = 0xFFFFFFFF


def _replay_draws(
    take: Callable[[], int],
    cdf: np.ndarray,
    count: int,
    rows: int,
    has_uint32: bool,
    uinteger: int,
) -> Tuple[np.ndarray, List[int], int, bool, int]:
    """Replay ``rows`` records' sender and receiver draws from raw outputs.

    ``take()`` returns the next PCG64 raw output.  Per record: one
    ``random()`` through ``cdf`` (``count`` entries) for the sender index,
    then ``integers(count)`` until the receiver index differs from it, over
    the buffered 32-bit draw that starts from ``has_uint32``/``uinteger``.
    Returns the sender and receiver indices, the raws taken and the final
    ``has_uint32``/``uinteger``.
    """
    threshold = (0x100000000 - count) % count
    bound = cdf.item
    uniforms: List[float] = []
    receivers: List[int] = []
    used = rows
    for _ in range(rows):
        uniform = (take() >> 11) * 1.1102230246251565e-16  # 2**-53
        while True:
            while True:  # one integers(count)
                if has_uint32:
                    scaled = uinteger * count
                    has_uint32 = False
                else:
                    raw = take()
                    used += 1
                    scaled = (raw & _LOW32) * count
                    uinteger = raw >> 32
                    has_uint32 = True
                if scaled & _LOW32 >= threshold:
                    break
            receiver = scaled >> 32
            # The sender is the index searchsorted(cdf, uniform, "right")
            # gives: the receiver's exactly when cdf[receiver - 1] <= uniform
            # < cdf[receiver].
            if uniform >= bound(receiver) or (receiver and uniform < bound(receiver - 1)):
                break
        uniforms.append(uniform)
        receivers.append(receiver)
    senders = cdf.searchsorted(uniforms, side="right")
    return senders, receivers, used, has_uint32, uinteger


def _sender_cdf(count: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Normalised CDF of one epoch's exponential sender popularity.

    ``cdf.searchsorted(rng.random(), side="right")`` is exactly the draw
    ``rng.choice(count, p=weights)`` makes — same cumulative sum, same
    normalisation, one uniform per draw — so the O(count) accumulation
    happens once per rotation epoch instead of once per record.
    """
    cdf = exponential_weights(count, scale, rng).cumsum()
    cdf /= cdf[-1]
    return cdf
