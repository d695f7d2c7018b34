"""Stream tuples and arrival schedules.

A :class:`StreamTuple` is the unit of data flowing through the operator.  It
carries the relation name, the record payload (a plain dict), a stable
``salt`` drawn uniformly in ``[0, 1)`` when the tuple enters the system, and
bookkeeping fields (arrival time, epoch tag) filled in by the engine.

The salt implements the paper's random, content-insensitive routing: under an
``(n, m)``-mapping an ``R`` tuple belongs to row partition ``floor(salt * n)``
and an ``S`` tuple to column partition ``floor(salt * m)``.  Because
``floor(salt * n)`` refines dyadically as ``n`` doubles and coarsens as ``n``
halves, partition assignments stay consistent across migrations, which is what
makes the locality-aware migration of §4.2.1 possible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

_tuple_ids = itertools.count()


@dataclass(slots=True)
class StreamTuple:
    """A single tuple of one of the two input streams.

    Attributes:
        relation: logical relation name, e.g. ``"R"`` or ``"LINEITEM_1"``.
        record: the attribute payload.
        salt: uniform random value in ``[0, 1)`` used for content-insensitive
            partition assignment; assigned once, never changed.
        size: size of the tuple in abstract storage units (the paper's
            ``size_R`` / ``size_S``).
        tuple_id: unique id, used for output verification in tests.
        arrival_time: virtual time at which the tuple entered the operator.
        epoch: epoch tag assigned by the reshuffler that routed it.
    """

    relation: str
    record: dict[str, Any]
    salt: float = 0.0
    size: float = 1.0
    tuple_id: int = field(default_factory=lambda: next(_tuple_ids))
    arrival_time: float = 0.0
    epoch: int = 0

    def partition(self, parts: int) -> int:
        """Partition index of this tuple when its relation is split ``parts`` ways."""
        index = int(self.salt * parts)
        # Guard against salt == 1.0 - epsilon rounding up at large ``parts``.
        return min(index, parts - 1)

    def with_epoch(self, epoch: int) -> "StreamTuple":
        """Return a shallow copy tagged with ``epoch`` (the record is shared)."""
        return StreamTuple(
            relation=self.relation,
            record=self.record,
            salt=self.salt,
            size=self.size,
            tuple_id=self.tuple_id,
            arrival_time=self.arrival_time,
            epoch=epoch,
        )


@dataclass
class ArrivalSchedule:
    """Arrival plan for the two input streams.

    ``items`` is the interleaved sequence of tuples in arrival order, and
    ``inter_arrival`` the virtual-time gap between consecutive arrivals.  The
    paper sets input rates "such that joiners are fully utilized"; a small
    constant gap achieves the same effect because the joiner cost per tuple
    dominates.
    """

    items: Sequence[StreamTuple]
    inter_arrival: float = 0.0

    def __len__(self) -> int:
        return len(self.items)

    def arrivals(self) -> Iterator[tuple[float, StreamTuple]]:
        """Yield ``(arrival_time, tuple)`` pairs."""
        for index, item in enumerate(self.items):
            yield index * self.inter_arrival, item


def assign_salts(tuples: Iterable[StreamTuple], rng: random.Random) -> list[StreamTuple]:
    """Assign fresh uniform salts to ``tuples`` (in place) and return them as a list."""
    result = []
    for item in tuples:
        item.salt = rng.random()
        result.append(item)
    return result


def interleave_streams(
    r_tuples: Sequence[StreamTuple],
    s_tuples: Sequence[StreamTuple],
    rng: random.Random | None = None,
    pattern: str = "uniform",
) -> list[StreamTuple]:
    """Interleave two relations into a single arrival order.

    Args:
        r_tuples: tuples of the first relation.
        s_tuples: tuples of the second relation.
        rng: randomness source; required for ``pattern="uniform"``.
        pattern: ``"uniform"`` shuffles both relations together (the paper's
            default online setting), ``"r_first"`` / ``"s_first"`` stream one
            relation completely before the other, and ``"alternate"``
            interleaves them round-robin.

    Returns:
        A list of all tuples in arrival order.
    """
    if pattern == "uniform":
        if rng is None:
            raise ValueError("pattern='uniform' requires an rng")
        combined = list(r_tuples) + list(s_tuples)
        rng.shuffle(combined)
        return combined
    if pattern == "r_first":
        return list(r_tuples) + list(s_tuples)
    if pattern == "s_first":
        return list(s_tuples) + list(r_tuples)
    if pattern == "alternate":
        combined = []
        for r_item, s_item in itertools.zip_longest(r_tuples, s_tuples):
            if r_item is not None:
                combined.append(r_item)
            if s_item is not None:
                combined.append(s_item)
        return combined
    raise ValueError(f"unknown interleaving pattern: {pattern!r}")


def make_tuples(
    relation: str,
    records: Iterable[dict[str, Any]],
    rng: random.Random,
    size: float = 1.0,
) -> list[StreamTuple]:
    """Wrap raw records into :class:`StreamTuple` objects with fresh salts."""
    tuples = [StreamTuple(relation=relation, record=record, size=size) for record in records]
    return assign_salts(tuples, rng)


def fluctuating_order(
    r_tuples: Sequence[StreamTuple],
    s_tuples: Sequence[StreamTuple],
    fluctuation_factor: float,
    warmup: int = 0,
) -> list[StreamTuple]:
    """Arrival order with alternating cardinality-ratio fluctuations (§5.4).

    Data from the first relation streams in until its cardinality is ``k``
    times the second relation's, then the roles swap, and so on until both
    streams are exhausted.  ``warmup`` tuples (alternating) are emitted first
    so the operator has a minimal amount of state before fluctuations start,
    mirroring the paper's "initiate adaptivity after 500K tuples" setting.

    Args:
        r_tuples: tuples of the first relation.
        s_tuples: tuples of the second relation.
        fluctuation_factor: the ratio ``k`` between the leading and the
            trailing relation at each swap point.
        warmup: number of tuples (total, alternating R/S) emitted round-robin
            before the fluctuation pattern begins.

    Returns:
        The full arrival order containing every input tuple exactly once.
    """
    if fluctuation_factor <= 1:
        raise ValueError("fluctuation_factor must be > 1")
    r_queue = list(r_tuples)
    s_queue = list(s_tuples)
    order: list[StreamTuple] = []
    sent_r = 0
    sent_s = 0

    warmup = min(warmup, len(r_queue) + len(s_queue))
    while warmup > 0 and (r_queue or s_queue):
        if r_queue and (sent_r <= sent_s or not s_queue):
            order.append(r_queue.pop(0))
            sent_r += 1
        elif s_queue:
            order.append(s_queue.pop(0))
            sent_s += 1
        warmup -= 1

    # ``leading`` is the relation currently streaming in.
    leading = "R"
    while r_queue or s_queue:
        if leading == "R":
            if not r_queue:
                leading = "S"
                continue
            order.append(r_queue.pop(0))
            sent_r += 1
            if sent_r >= fluctuation_factor * max(sent_s, 1) and s_queue:
                leading = "S"
        else:
            if not s_queue:
                leading = "R"
                continue
            order.append(s_queue.pop(0))
            sent_s += 1
            if sent_s >= fluctuation_factor * max(sent_r, 1) and r_queue:
                leading = "R"
    return order
