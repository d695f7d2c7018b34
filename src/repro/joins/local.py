"""Local non-blocking join algorithms.

A :class:`LocalJoiner` lives inside one joiner task.  It stores the tuples of
both relations assigned to that joiner and, for every newly arriving tuple,
immediately produces the joins with the stored tuples of the opposite
relation — the classic symmetric/pipelined evaluation scheme of SHJ, XJoin and
friends.  The operator is agnostic to which flavour runs locally (§3.2); the
flavours differ only in the index structures they maintain and therefore in
the CPU work a probe costs.

``insert`` and ``probe`` return *work units* (number of candidates touched)
so that the simulation engine can charge realistic, predicate-dependent CPU
costs.  :meth:`LocalJoiner.probe_batch` inserts+probes a whole drained run
symmetrically — each member joins against everything stored before it,
including earlier run members — while probing the pre-run index state in one
grouped (hash) or sort-merge (ordered) pass.

Probe engines are pluggable through the
:data:`repro.api.registry.probe_engines` registry; two ship built in:

* ``"vectorized"`` (default) — batch index passes, and the exact-key fast
  path: candidates from an exact-key hash bucket already satisfy the primary
  equality (the bucket key *is* the predicate), so only composite residuals
  are re-validated per pair.  Band predicates advertising ``range_complete``
  (integer-keyed / tolerance-safe bands — see
  :class:`~repro.joins.predicates.BandPredicate`) get the range analogue:
  ordered-window candidates skip the per-pair band re-validation.
* ``"scalar"`` — the per-member reference path that re-validates the full
  predicate on every candidate.  It defines the semantics ``probe_batch``
  must reproduce and serves as the differential-testing oracle and the
  pre-vectorization benchmark baseline.

Additional engines register via :func:`repro.api.register_probe_engine` with
a :class:`ProbeEngine` strategy; unknown engine names fail eagerly at joiner
(and, higher up, operator/config) construction with the registered choices
listed.  Likewise, :func:`make_local_joiner` dispatches on the predicate
``kind`` through the :data:`repro.api.registry.predicate_kinds` registry, so
new predicate families plug in their local algorithms without touching this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.api.registry import (
    predicate_kinds,
    probe_engines,
    register_predicate,
    register_probe_engine,
)
from repro.engine.columns import HAS_NUMPY, NUMPY_HINT
from repro.engine.stream import StreamTuple
from repro.joins.index import JoinIndex, make_index
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    JoinPredicate,
    ThetaPredicate,
)


@dataclass(frozen=True)
class ProbeEngine:
    """Strategy object describing one probe-engine flavour.

    Attributes:
        name: registry name of the engine.
        exact_key_fast_path: whether candidates the index already decides —
            exact-key hash buckets, and range windows of band predicates
            advertising ``range_complete`` — may skip per-pair re-validation
            of the primary predicate.
        probe_batch: callable ``(joiner, items) -> [(matches, work), ...]``
            implementing the batch insert+probe pass; must reproduce the
            scalar reference semantics exactly (same matches, same charged
            work).
        index_factory: optional ``(kind, key_func) -> JoinIndex`` override
            used instead of :func:`repro.joins.index.make_index`; lets an
            engine pair its kernels with matching index layouts (the columnar
            engine's array-mirrored indexes).
        requires: optional name of an extra this engine depends on (today
            only ``"numpy"``).  The engine always *registers* — it appears in
            the choice lists — but joiner/config construction raises an eager
            error when the extra is missing.
        bulk_commit: whether joiner tasks may replace the per-member Python
            cost/busy accumulation of a drained run with the vectorised
            ``np.cumsum`` chain (``JoinerTask`` gates it further on the
            conditions that make the chain provably bit-identical: unbounded
            memory, every member stored).  Only meaningful with a
            NumPy-backed engine.
    """

    name: str
    exact_key_fast_path: bool
    probe_batch: Callable[["LocalJoiner", Sequence[StreamTuple]], list]
    index_factory: Callable[[str, Callable | None], JoinIndex] | None = None
    requires: str | None = None
    bulk_commit: bool = False


class LocalJoiner:
    """Symmetric, index-backed local join over two relations.

    Args:
        predicate: the join condition; its ``kind`` selects the index type.
        left_relation: relation name treated as the left/"R" side.
        right_relation: relation name treated as the right/"S" side.
        engine: probe engine, ``"vectorized"`` (default) or ``"scalar"``
            (full per-candidate re-validation; reference semantics).
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        engine: str = "vectorized",
    ) -> None:
        # Registry lookup raises eagerly with the registered choices listed.
        self._engine_spec: ProbeEngine = probe_engines.get(engine)
        if self._engine_spec.requires == "numpy" and not HAS_NUMPY:
            raise ValueError(f"probe engine {engine!r} unavailable: {NUMPY_HINT}")
        self.predicate = predicate
        self.left_relation = left_relation
        self.right_relation = right_relation
        self.engine = engine
        self._indexes: dict[str, JoinIndex] = {
            left_relation: self._build_index(side="left"),
            right_relation: self._build_index(side="right"),
        }
        # The index objects are stable for the joiner's lifetime; direct
        # references serve the keyed probe fast paths.
        self._left_index = self._indexes[left_relation]
        self._right_index = self._indexes[right_relation]
        kind = predicate.kind
        # Pre-resolved probe plumbing (avoids per-probe getattr chains).
        self._pred_left_key = predicate.left_key if kind in ("equi", "band") else None
        self._pred_right_key = predicate.right_key if kind in ("equi", "band") else None
        self._band_width = self._resolve_band_width() if kind == "band" else 0.0
        self._exact_key = (
            self._engine_spec.exact_key_fast_path and kind == "equi" and predicate.exact_key
        )
        # Band analogue of the exact-key fast path: the predicate asserts the
        # range window exactly decides the primary condition (integer-keyed /
        # tolerance-safe bands), so range candidates skip re-validation.  The
        # scalar engine ignores the fast path — it stays the full-validation
        # differential oracle.
        self._range_complete = (
            self._engine_spec.exact_key_fast_path
            and kind == "band"
            and predicate.range_complete
        )
        # Per-candidate validation, resolved once: None means exact-key hash
        # (or range-complete window) candidates need no validation at all;
        # fast-path predicates with residuals validate only the residual
        # part; everything else (and the scalar engine) runs the full
        # predicate.
        self._check = (
            predicate.residual_check()
            if self._exact_key or self._range_complete
            else predicate.matches
        )

    # ------------------------------------------------------------ index setup

    def _resolve_band_width(self) -> float:
        width = getattr(self.predicate, "width", None)
        if width is None:
            width = getattr(getattr(self.predicate, "primary", None), "width", 0.0)
        return width

    def _key_func(self, side: str) -> Callable[[StreamTuple], object] | None:
        if self.predicate.kind not in ("equi", "band"):
            return None
        if side == "left":
            return lambda item: self.predicate.left_key(item.record)
        return lambda item: self.predicate.right_key(item.record)

    def _build_index(self, side: str) -> JoinIndex:
        factory = self._engine_spec.index_factory
        if factory is not None:
            return factory(self.predicate.kind, self._key_func(side))
        return make_index(self.predicate.kind, self._key_func(side))

    def fresh(self) -> "LocalJoiner":
        """An empty joiner with the same predicate, relations and engine.

        Used by the epoch protocol to build tag-partitioned sub-stores.
        """
        return type(self)(self.predicate, self.left_relation, self.right_relation,
                          engine=self.engine)

    # ---------------------------------------------------------------- storage

    def _check_relation(self, relation: str) -> None:
        if relation not in self._indexes:
            raise KeyError(
                f"unknown relation {relation!r}; expected "
                f"{self.left_relation!r} or {self.right_relation!r}"
            )

    def opposite(self, relation: str) -> str:
        """The other relation's name."""
        self._check_relation(relation)
        if relation == self.left_relation:
            return self.right_relation
        return self.left_relation

    def insert(self, item: StreamTuple) -> float:
        """Store ``item``; returns the work units spent."""
        self._check_relation(item.relation)
        self._indexes[item.relation].insert(item)
        return 1.0

    def bulk_insert(self, relation: str, items: Sequence[StreamTuple]) -> None:
        """Bulk-load ``items`` of ``relation`` (amortised index construction)."""
        self._check_relation(relation)
        self._indexes[relation].bulk_insert(items)

    def absorb(self, other: "LocalJoiner") -> None:
        """Merge every tuple stored in ``other`` into this joiner."""
        for relation in (self.left_relation, self.right_relation):
            self._indexes[relation].bulk_insert(list(other.stored(relation)))

    def remove(self, item: StreamTuple) -> bool:
        """Remove ``item`` from storage; returns True if it was stored."""
        self._check_relation(item.relation)
        return self._indexes[item.relation].remove(item)

    def count(self, relation: str) -> int:
        """Number of stored tuples of ``relation``."""
        self._check_relation(relation)
        return len(self._indexes[relation])

    def total_count(self) -> int:
        """Number of stored tuples across both relations (O(1))."""
        return sum(len(index) for index in self._indexes.values())

    def stored_size(self) -> float:
        """Total size units stored across both relations (O(1)).

        Backed by counters the indexes maintain on insert/remove/bulk-load —
        never a re-scan of the stored tuples.
        """
        return sum(index.total_size for index in self._indexes.values())

    def stored(self, relation: str) -> Iterator[StreamTuple]:
        """Iterate over stored tuples of ``relation``."""
        self._check_relation(relation)
        return self._indexes[relation].items()

    # ----------------------------------------------------------------- probes

    def probe(
        self,
        item: StreamTuple,
        restrict: Callable[[StreamTuple], bool] | None = None,
    ) -> tuple[list[StreamTuple], float]:
        """Join ``item`` against stored tuples of the opposite relation.

        Args:
            item: the newly arrived tuple (not yet inserted).
            restrict: optional filter over stored tuples (tuple-set selection
                for callers not using the partitioned epoch stores).

        Returns:
            ``(matches, work_units)`` where ``matches`` are the stored tuples
            satisfying the predicate with ``item`` and ``work_units`` counts
            the candidates the index had to inspect.  Work units are floored
            at 1: every probe costs at least the index lookup itself.  This is
            the *single* place the floor is applied — indexes and
            :meth:`raw_probe` report raw candidate counts.
        """
        matches, inspected = self.raw_probe(item, restrict)
        return matches, float(max(inspected, 1))

    def raw_probe(
        self,
        item: StreamTuple,
        restrict: Callable[[StreamTuple], bool] | None = None,
    ) -> tuple[list[StreamTuple], int]:
        """Like :meth:`probe` but reporting the unfloored candidate count.

        The epoch protocol probes several tag-partitioned sub-stores per
        logical probe and applies the work floor once to the summed counts.
        """
        self._check_relation(item.relation)
        item_is_left = item.relation == self.left_relation
        opposite_index = self._indexes[
            self.right_relation if item_is_left else self.left_relation
        ]
        candidates, inspected = self._candidates(opposite_index, item, item_is_left)
        if not candidates:
            return [], inspected
        check = self._check
        if restrict is None:
            if check is None:
                # Exact-key fast path: the bucket is the match set.
                return list(candidates), inspected
            record = item.record
            if item_is_left:
                return [c for c in candidates if check(record, c.record)], inspected
            return [c for c in candidates if check(c.record, record)], inspected
        matches = []
        record = item.record
        for candidate in candidates:
            if not restrict(candidate):
                continue
            if check is not None:
                if item_is_left:
                    satisfied = check(record, candidate.record)
                else:
                    satisfied = check(candidate.record, record)
                if not satisfied:
                    continue
            matches.append(candidate)
        return matches, inspected

    # ------------------------------------------------------------ keyed probes
    #
    # The epoch protocol probes several tag-partitioned sub-stores per logical
    # probe; all partitions share one predicate, so the per-tuple inputs
    # (side, extracted key) are resolved once via probe_plan and reused by the
    # keyed variants below — identical results/work to raw_probe and
    # candidate_count, minus the repeated dispatch and key extraction.

    def probe_plan(self, item: StreamTuple) -> tuple[bool, object]:
        """Resolve one tuple's probe inputs: ``(is_left, key)``.

        ``key`` is None for scan-served (theta) predicates.  Valid for any
        joiner sharing this joiner's predicate and relation names (the epoch
        sub-stores), whose keyed probes can then skip re-extraction.
        """
        item_is_left = item.relation == self.left_relation
        left_key = self._pred_left_key
        if left_key is None:
            return item_is_left, None
        if item_is_left:
            return item_is_left, left_key(item.record)
        return item_is_left, self._pred_right_key(item.record)

    def keyed_raw_probe(
        self, item_is_left: bool, key, record
    ) -> tuple[list[StreamTuple], int]:
        """:meth:`raw_probe` with the inputs of :meth:`probe_plan` pre-resolved."""
        opposite_index = self._right_index if item_is_left else self._left_index
        kind = self.predicate.kind
        if kind == "equi":
            candidates, inspected = opposite_index.probe(key)
        elif kind == "band":
            width = self._band_width
            candidates, inspected = opposite_index.probe_range(key - width, key + width)
        else:
            candidates, inspected = opposite_index.probe(None)
        if not candidates:
            return [], inspected
        check = self._check
        if check is None:
            return list(candidates), inspected
        if item_is_left:
            return [c for c in candidates if check(record, c.record)], inspected
        return [c for c in candidates if check(c.record, record)], inspected

    def keyed_candidate_count(self, item_is_left: bool, key) -> int:
        """:meth:`candidate_count` with the probe inputs pre-resolved."""
        opposite_index = self._right_index if item_is_left else self._left_index
        kind = self.predicate.kind
        if kind == "equi":
            return opposite_index.count_key(key)
        if kind == "band":
            width = self._band_width
            return opposite_index.count_range(key - width, key + width)
        return len(opposite_index)

    def candidate_count(self, item: StreamTuple) -> int:
        """Candidates a probe of ``item`` would inspect, without materialising.

        O(1) for hash/scan stores, O(log n) for ordered stores; used for
        exact work accounting over unprobed epoch partitions.  Delegates to
        the keyed variant so the kind dispatch lives in one place.
        """
        item_is_left, key = self.probe_plan(item)
        return self.keyed_candidate_count(item_is_left, key)

    def _candidates(
        self, opposite_index: JoinIndex, item: StreamTuple, item_is_left: bool
    ) -> tuple[list[StreamTuple], int]:
        kind = self.predicate.kind
        if kind == "equi":
            key = (
                self._pred_left_key(item.record)
                if item_is_left
                else self._pred_right_key(item.record)
            )
            return opposite_index.probe(key)
        if kind == "band":
            key = (
                self._pred_left_key(item.record)
                if item_is_left
                else self._pred_right_key(item.record)
            )
            width = self._band_width
            return opposite_index.probe_range(key - width, key + width)
        return opposite_index.probe(None)

    # ------------------------------------------------------------ batch probe

    def probe_batch(
        self, items: Sequence[StreamTuple]
    ) -> list[tuple[list[StreamTuple], float]]:
        """Symmetrically insert+probe a whole drained run.

        Semantically equivalent to, for each member in order: ``probe(member)``
        then ``insert(member)`` — every member joins against everything stored
        before it, including earlier batch members of the opposite relation
        (intra-batch self-join semantics).  The vectorized engine runs one
        lean pass over the live indexes: zero-copy bucket walks with
        pre-extracted keys (hash), in-place band windows (ordered), and no
        per-candidate validation when the exact-key fast path applies —
        because the indexes are live, each member automatically sees every
        earlier member of the opposite relation.

        Returns:
            Per-member ``(matches, work_units)``, aligned with ``items``.
            Work accounting is identical to the per-member sequence: raw
            candidate counts (pre-batch + earlier intra-batch candidates),
            floored at 1 per member.
        """
        return self._engine_spec.probe_batch(self, items)

    def _probe_batch_equi(
        self, items: Sequence[StreamTuple]
    ) -> list[tuple[list[StreamTuple], float]]:
        # One lean pass over the live hash buckets: probing the opposite
        # bucket in place (zero-copy) and appending each member under its
        # already-extracted key.  Because the buckets are live, intra-batch
        # self-join semantics fall out for free — each member sees every
        # earlier member of the opposite relation.
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_key = self._pred_left_key
        right_key = self._pred_right_key
        left_index = self._indexes[left_relation]
        right_index = self._indexes[right_relation]
        check = self._check
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            record = item.record
            if item.relation == left_relation:
                is_left = True
                key = left_key(record)
                bucket = right_index.bucket_for(key)
            else:
                if item.relation != right_relation:
                    self._check_relation(item.relation)
                is_left = False
                key = right_key(record)
                bucket = left_index.bucket_for(key)
            if bucket:
                if check is None:
                    matches = list(bucket)
                elif is_left:
                    matches = [c for c in bucket if check(record, c.record)]
                else:
                    matches = [c for c in bucket if check(c.record, record)]
                append((matches, float(len(bucket))))
            else:
                append(([], 1.0))
            (left_index if is_left else right_index).insert_keyed(key, item)
        return results

    def _probe_batch_band(
        self, items: Sequence[StreamTuple]
    ) -> list[tuple[list[StreamTuple], float]]:
        # Lean pass over the live ordered indexes: each member bisects its
        # band window out of the opposite key list and is then inserted, so
        # later members see it — intra-batch semantics without side
        # structures.  (probe_range_batch's sort-merge cursor serves callers
        # probing a static snapshot; here the index mutates between probes.)
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_key = self._pred_left_key
        right_key = self._pred_right_key
        width = self._band_width
        left_index = self._indexes[left_relation]
        right_index = self._indexes[right_relation]
        check = self._check
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            record = item.record
            if item.relation == left_relation:
                is_left = True
                key = left_key(record)
                candidates, inspected = right_index.probe_range(key - width, key + width)
            else:
                if item.relation != right_relation:
                    self._check_relation(item.relation)
                is_left = False
                key = right_key(record)
                candidates, inspected = left_index.probe_range(key - width, key + width)
            if candidates:
                if check is None:
                    # Range-complete fast path: the window is the match set.
                    matches = list(candidates)
                elif is_left:
                    matches = [c for c in candidates if check(record, c.record)]
                else:
                    matches = [c for c in candidates if check(c.record, record)]
                append((matches, float(max(inspected, 1))))
            else:
                append(([], 1.0))
            (left_index if is_left else right_index).insert(item)
        return results

    def _probe_batch_scan(
        self, items: Sequence[StreamTuple]
    ) -> list[tuple[list[StreamTuple], float]]:
        left_relation = self.left_relation
        right_relation = self.right_relation
        left_index = self._indexes[left_relation]
        right_index = self._indexes[right_relation]
        check = self._check
        results: list[tuple[list[StreamTuple], float]] = []
        append = results.append
        for item in items:
            record = item.record
            if item.relation == left_relation:
                is_left = True
                candidates, inspected = right_index.probe(None)
            else:
                if item.relation != right_relation:
                    self._check_relation(item.relation)
                is_left = False
                candidates, inspected = left_index.probe(None)
            if candidates:
                if is_left:
                    matches = [c for c in candidates if check(record, c.record)]
                else:
                    matches = [c for c in candidates if check(c.record, record)]
                append((matches, float(max(inspected, 1))))
            else:
                append(([], 1.0))
            (left_index if is_left else right_index).insert(item)
        return results

    # -------------------------------------------------------------- reporting

    def describe(self) -> str:
        """Human-readable algorithm description."""
        return f"{type(self).__name__}({self.predicate.describe()})"


class SymmetricHashJoiner(LocalJoiner):
    """Symmetric hash join (Wilschut & Apers); requires an equi predicate."""

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        engine: str = "vectorized",
    ) -> None:
        if predicate.kind != "equi":
            raise ValueError("SymmetricHashJoiner requires an equi-join predicate")
        super().__init__(predicate, left_relation, right_relation, engine=engine)


class SortedBandJoiner(LocalJoiner):
    """Sort/merge-flavoured local join with ordered indexes; for band predicates.

    The band ``width`` is resolved once at construction (see
    ``LocalJoiner._resolve_band_width``), not per probe.
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        engine: str = "vectorized",
    ) -> None:
        if predicate.kind != "band":
            raise ValueError("SortedBandJoiner requires a band-join predicate")
        super().__init__(predicate, left_relation, right_relation, engine=engine)


class NestedLoopJoiner(LocalJoiner):
    """Block-nested-loop local join; handles arbitrary theta predicates."""


def make_local_joiner(
    predicate: JoinPredicate,
    left_relation: str,
    right_relation: str,
    engine: str = "vectorized",
) -> LocalJoiner:
    """Build the local algorithm registered for the predicate's ``kind``."""
    spec = predicate_kinds.get(predicate.kind)
    return spec.joiner_factory(predicate, left_relation, right_relation, engine=engine)


# --------------------------------------------------------------------------
# Built-in registrations (the registries are the single dispatch authority;
# new engines/kinds plug in through repro.api.register_* without edits here).
# --------------------------------------------------------------------------

def _scalar_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[list[StreamTuple], float]]:
    """Reference semantics: the exact per-member probe-then-insert sequence."""
    results = []
    for item in items:
        results.append(joiner.probe(item))
        joiner.insert(item)
    return results


def _vectorized_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[list[StreamTuple], float]]:
    """One lean pass over the live indexes, dispatched on the predicate kind."""
    kind = joiner.predicate.kind
    if kind == "equi":
        return joiner._probe_batch_equi(items)
    if kind == "band":
        return joiner._probe_batch_band(items)
    return joiner._probe_batch_scan(items)


register_probe_engine(
    "vectorized",
    ProbeEngine(
        name="vectorized",
        exact_key_fast_path=True,
        probe_batch=_vectorized_probe_batch,
    ),
)
register_probe_engine(
    "scalar",
    ProbeEngine(
        name="scalar",
        exact_key_fast_path=False,
        probe_batch=_scalar_probe_batch,
    ),
)

register_predicate("equi", SymmetricHashJoiner, EquiPredicate)
register_predicate("band", SortedBandJoiner, BandPredicate)
register_predicate("theta", NestedLoopJoiner, ThetaPredicate)

# The columnar engine registers itself from its own module (it needs every
# name above, so the import sits after them — a deliberately resolvable
# circular import, same pattern as the registrations living at the bottom).
from repro.joins import columnar as _columnar  # noqa: E402,F401
