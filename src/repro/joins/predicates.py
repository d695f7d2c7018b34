"""Join predicates.

The join-matrix model (§3.1) represents *any* join condition: a matrix cell
``M(i, j)`` is true iff tuples ``r_i`` and ``s_j`` satisfy the predicate.  The
operator itself is content-insensitive and never inspects predicates for
routing; predicates only matter to the *local* join algorithm running inside
each joiner, which can exploit their structure (hash probes for equi-joins,
range probes for band joins, scans for general theta conditions).

A predicate therefore exposes three things:

* ``matches(left, right)`` — the truth value of the condition,
* ``kind`` — ``"equi"``, ``"band"`` or ``"theta"``, advertising which index
  type can serve it,
* key extractors for the indexed kinds,
* ``exact_key`` / ``residual_matches`` — whether an exact-key hash probe
  already decides the primary condition, and the residual part (if any) that
  still has to run per candidate pair.  The probe engine uses this to skip
  re-validating equality for hash candidates (the bucket key *is* the
  predicate) while still applying composite residual filters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

Record = dict[str, Any]


class UnsupportedKeyError(ValueError):
    """An input record's join key lies outside its predicate's key domain.

    Band predicates need totally ordered real keys: the ordered indexes
    bisect on them, and NaN or ``None`` would corrupt that order and lose
    matches silently.  Raised at ingestion, before the record is fed.
    """

    def __init__(self, relation: str, attribute: str, record: Any) -> None:
        self.relation = relation
        self.attribute = attribute
        self.record = record
        super().__init__(
            f"unsupported band key in relation {relation!r}, attribute "
            f"{attribute!r}: {record!r} (band keys must be real numbers, not NaN)"
        )


def _is_real_key(key: Any) -> bool:
    """Whether ``key`` is a real number other than NaN."""
    if key.__class__ is int or key.__class__ is float:
        return key == key  # False only for NaN
    return isinstance(key, numbers.Real) and not math.isnan(key)


class JoinPredicate:
    """Base class for join predicates over record pairs."""

    #: one of "equi", "band", "theta"
    kind: str = "theta"

    #: Whether an ordered-index range probe ``[key - width, key + width]``
    #: fully decides the primary condition, so range candidates need no
    #: per-pair re-validation (the range analogue of :attr:`exact_key`).
    #: False by default: float band edges are not exactly decidable from
    #: bisect bounds.  Integer-keyed / tolerance-safe band predicates opt in
    #: (see :class:`BandPredicate`).
    range_complete: bool = False

    @property
    def exact_key(self) -> bool:
        """Whether an exact-key hash probe fully decides the primary condition.

        When True, every candidate returned from the matching hash bucket is
        guaranteed to satisfy the primary predicate (key equality *is* bucket
        membership), so only :meth:`residual_matches` needs to run per pair.
        """
        return False

    @property
    def has_residual(self) -> bool:
        """Whether :meth:`residual_matches` is non-trivial for this predicate."""
        return True

    def residual_matches(self, left: Record, right: Record) -> bool:
        """The part of the condition an exact-key probe does *not* guarantee.

        Defaults to the full condition; exact-key predicates override it with
        their residual-only check (or a constant True).
        """
        return self.matches(left, right)

    def residual_check(self) -> Callable[[Record, Record], bool] | None:
        """The leanest per-candidate check for exact-key index candidates.

        Returns ``None`` when bucket membership alone decides the predicate
        (no per-pair work at all), otherwise a callable evaluating just the
        residual part.  Resolved once per joiner at construction, not per
        probe.
        """
        if not self.has_residual:
            return None
        return self.residual_matches

    def matches(self, left: Record, right: Record) -> bool:
        """Whether the pair ``(left, right)`` satisfies the join condition."""
        raise NotImplementedError

    def left_key(self, left: Record) -> Any:
        """Key extracted from a left-relation record (indexed kinds only)."""
        raise NotImplementedError

    def right_key(self, right: Record) -> Any:
        """Key extracted from a right-relation record (indexed kinds only)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return type(self).__name__

    def check_keys(self, items: Iterable[Any], left_relation: str) -> None:
        """Reject stream tuples whose keys this predicate cannot join.

        ``items`` are :class:`~repro.engine.stream.StreamTuple`\\ s; those of
        ``left_relation`` are checked as left records, all others as right
        records.  Raises :class:`UnsupportedKeyError`.  Only band predicates
        restrict their keys; the default accepts everything.
        """


@dataclass
class EquiPredicate(JoinPredicate):
    """Equality predicate ``left[left_attr] == right[right_attr]``."""

    left_attr: str
    right_attr: str
    kind: str = field(default="equi", init=False)

    @property
    def exact_key(self) -> bool:
        return True

    @property
    def has_residual(self) -> bool:
        return False

    def residual_matches(self, left: Record, right: Record) -> bool:
        return True

    def matches(self, left: Record, right: Record) -> bool:
        return left[self.left_attr] == right[self.right_attr]

    def left_key(self, left: Record) -> Any:
        return left[self.left_attr]

    def right_key(self, right: Record) -> Any:
        return right[self.right_attr]

    def describe(self) -> str:
        return f"{self.left_attr} = {self.right_attr}"


@dataclass
class BandPredicate(JoinPredicate):
    """Band predicate ``|left[left_attr] - right[right_attr]| <= width``.

    ``range_complete=True`` advertises that the ordered-index window
    ``[key - width, key + width]`` *exactly* decides the condition, letting
    the vectorized probe engine skip per-candidate re-validation (the band
    analogue of the equi exact-key fast path).  That holds when window
    membership and ``|l - r| <= width`` can never disagree under float
    arithmetic — e.g. integer keys with an integer width (exact in floats up
    to 2**53), or keys quantised coarsely enough that width-edge rounding
    cannot flip a comparison.  It is an *assertion by the caller* about the
    data; with arbitrary float keys leave it False (the default), where every
    candidate is re-validated.
    """

    left_attr: str
    right_attr: str
    width: float = 1.0
    range_complete: bool = False
    kind: str = field(default="band", init=False)

    @property
    def has_residual(self) -> bool:
        return not self.range_complete

    def residual_matches(self, left: Record, right: Record) -> bool:
        if self.range_complete:
            return True
        return self.matches(left, right)

    def matches(self, left: Record, right: Record) -> bool:
        return abs(left[self.left_attr] - right[self.right_attr]) <= self.width

    def left_key(self, left: Record) -> Any:
        return left[self.left_attr]

    def right_key(self, right: Record) -> Any:
        return right[self.right_attr]

    def describe(self) -> str:
        return f"|{self.left_attr} - {self.right_attr}| <= {self.width}"

    def check_keys(self, items: Iterable[Any], left_relation: str) -> None:
        left_attr = self.left_attr
        right_attr = self.right_attr
        for item in items:
            attribute = left_attr if item.relation == left_relation else right_attr
            if not _is_real_key(item.record.get(attribute)):
                raise UnsupportedKeyError(item.relation, attribute, item.record)


@dataclass
class ThetaPredicate(JoinPredicate):
    """Arbitrary theta predicate given by a callable ``(left, right) -> bool``."""

    condition: Callable[[Record, Record], bool]
    name: str = "theta"
    kind: str = field(default="theta", init=False)

    def matches(self, left: Record, right: Record) -> bool:
        return bool(self.condition(left, right))

    def describe(self) -> str:
        return self.name


@dataclass
class NotEqualPredicate(JoinPredicate):
    """The inequality predicate used in the paper's Fig. 1a example."""

    left_attr: str
    right_attr: str
    kind: str = field(default="theta", init=False)

    def matches(self, left: Record, right: Record) -> bool:
        return left[self.left_attr] != right[self.right_attr]

    def describe(self) -> str:
        return f"{self.left_attr} != {self.right_attr}"


@dataclass
class CompositePredicate(JoinPredicate):
    """Conjunction of a *primary* (indexable) predicate and residual conditions.

    The evaluation queries of §5 combine an equi or band condition with extra
    per-pair filters (e.g. ``L1.shipmode = 'TRUCK' AND L2.shipmode != 'TRUCK'``).
    The primary predicate drives index selection; the residual conditions are
    applied to every candidate pair the index produces.
    """

    primary: JoinPredicate
    residuals: Sequence[Callable[[Record, Record], bool]] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        self.kind = self.primary.kind
        self.range_complete = self.primary.range_complete

    @property
    def exact_key(self) -> bool:
        return self.primary.exact_key

    @property
    def has_residual(self) -> bool:
        return bool(self.residuals) or self.primary.has_residual

    def residual_matches(self, left: Record, right: Record) -> bool:
        if self.primary.has_residual and not self.primary.residual_matches(left, right):
            return False
        for residual in self.residuals:
            if not residual(left, right):
                return False
        return True

    def residual_check(self) -> Callable[[Record, Record], bool] | None:
        if self.primary.has_residual:
            return self.residual_matches
        residuals = tuple(self.residuals)
        if not residuals:
            return None
        if len(residuals) == 1:
            return residuals[0]

        def check(left: Record, right: Record) -> bool:
            for residual in residuals:
                if not residual(left, right):
                    return False
            return True

        return check

    def matches(self, left: Record, right: Record) -> bool:
        if not self.primary.matches(left, right):
            return False
        for residual in self.residuals:
            if not residual(left, right):
                return False
        return True

    def left_key(self, left: Record) -> Any:
        return self.primary.left_key(left)

    def right_key(self, right: Record) -> Any:
        return self.primary.right_key(right)

    def check_keys(self, items: Iterable[Any], left_relation: str) -> None:
        self.primary.check_keys(items, left_relation)

    def describe(self) -> str:
        if self.name:
            return self.name
        extra = f" AND {len(self.residuals)} residual(s)" if self.residuals else ""
        return self.primary.describe() + extra


def cross_join_reference(
    left_records: Sequence[Record],
    right_records: Sequence[Record],
    predicate: JoinPredicate,
) -> list[tuple[int, int]]:
    """Reference nested-loop evaluation over record *indexes*.

    Used by tests to verify that every operator produces exactly the matching
    pairs (result completeness, Definition 4.4) regardless of partitioning,
    arrival order or migrations.
    """
    matches = []
    for left_index, left in enumerate(left_records):
        for right_index, right in enumerate(right_records):
            if predicate.matches(left, right):
                matches.append((left_index, right_index))
    return matches
