"""The columnar probe engine: NumPy set-at-a-time probe kernels.

``probe_engine="columnar"`` pairs the array-mirrored indexes of
:mod:`repro.joins.index` (:class:`~repro.joins.index.ColumnarHashIndex`,
:class:`~repro.joins.index.ColumnarOrderedIndex`,
:class:`~repro.joins.index.ColumnarScanIndex` — wired in through
``ProbeEngine.index_factory``) with batch kernels that replace the vectorized
engine's per-candidate Python loops:

* **equi** — the exact-key bucket *is* the match set, handed out as a
  zero-copy :class:`~repro.engine.columns.MatchBlock` over the bucket's
  lazily-built column snapshots (only probed buckets ever pay for array
  conversion); composite residuals become one boolean-mask gather per member
  instead of a list comprehension.
* **band** — one whole-batch pass: both ordered mirrors are synced once (a
  single batched ``np.insert`` merge each), every member's window is cut out
  of the *pre-batch* mirror with one batched ``np.searchsorted`` per side,
  and intra-batch candidates (opposite-relation members earlier in the same
  batch) come from a small kernel-local sorted delta — static counts plus
  delta counts reproduce the live per-member window sizes exactly.  Because
  sync *replaces* the mirror arrays instead of shifting them, static window
  slices are stable zero-copy snapshots.
* **scan (theta)** — boolean-mask validation over the lazily-built scan
  columns.

Every kernel reproduces the scalar oracle bit-for-bit: same match multisets,
same per-member charged work (raw candidate counts floored at 1), same
insertion order.  (Within one member's match set the *order* of matches may
differ from the scalar enumeration — all pairs of a block share one emission
instant and downstream consumers are order-independent.)  Exactness is
*guarded*, never assumed: the ordered index drops its float64 mirror the
moment a key is not exactly representable (``float(x) != x``), batched cuts
refuse non-representable window bounds, and the kernels fall back to the
per-member bisect/list paths of the vectorized engine — identical semantics,
just slower.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.api.registry import register_probe_engine
from repro.engine.columns import MatchBlock, np
from repro.engine.stream import StreamTuple
from repro.joins.index import (
    ColumnarHashIndex,
    ColumnarOrderedIndex,
    ColumnarScanIndex,
    make_columnar_index,
)
from repro.joins.local import LocalJoiner, ProbeEngine
from repro.joins.predicates import BandPredicate


def _equi_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[object, float]]:
    left_relation = joiner.left_relation
    right_relation = joiner.right_relation
    left_key = joiner._pred_left_key
    right_key = joiner._pred_right_key
    left_index: ColumnarHashIndex = joiner._left_index
    right_index: ColumnarHashIndex = joiner._right_index
    check = joiner._check
    bool_ = np.bool_
    results: list[tuple[object, float]] = []
    append = results.append
    for item in items:
        record = item.record
        if item.relation == left_relation:
            is_left = True
            key = left_key(record)
            opposite = right_index
        else:
            if item.relation != right_relation:
                joiner._check_relation(item.relation)
            is_left = False
            key = right_key(record)
            opposite = left_index
        bucket = opposite.bucket_for(key)
        if bucket:
            count = len(bucket)
            if check is None:
                # Exact-key fast path: the bucket is the match set — a
                # zero-copy block over its stable column snapshots.
                arrivals, ids = opposite.cols_for(key, bucket)
                matches = MatchBlock(item, is_left, arrivals.view(), ids.view())
            else:
                if is_left:
                    flags = np.fromiter(
                        (bool(check(record, c.record)) for c in bucket),
                        bool_,
                        count,
                    )
                else:
                    flags = np.fromiter(
                        (bool(check(c.record, record)) for c in bucket),
                        bool_,
                        count,
                    )
                hits = int(flags.sum())
                if hits == 0:
                    matches = []
                elif hits == count:
                    arrivals, ids = opposite.cols_for(key, bucket)
                    matches = MatchBlock(item, is_left, arrivals.view(), ids.view())
                else:
                    arrivals, ids = opposite.cols_for(key, bucket)
                    matches = MatchBlock(
                        item, is_left, arrivals.view()[flags], ids.view()[flags]
                    )
            append((matches, float(count)))
        else:
            append(([], 1.0))
        (left_index if is_left else right_index).insert_keyed(key, item)
    return results


def _band_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[object, float]]:
    left_relation = joiner.left_relation
    right_relation = joiner.right_relation
    left_key = joiner._pred_left_key
    right_key = joiner._pred_right_key
    width = joiner._band_width
    left_index: ColumnarOrderedIndex = joiner._left_index
    right_index: ColumnarOrderedIndex = joiner._right_index
    check = joiner._check
    predicate = joiner.predicate
    # The vectorised key-distance mask replaces per-pair predicate calls only
    # when both are provably the same float64 computation: a pure band
    # predicate (check *is* the key-distance test), an exactly-representable
    # width, float probe key and all-float stored keys.
    mask_eligible = (
        check is not None
        and type(predicate) is BandPredicate
        and float(width) == width
    )
    bool_ = np.bool_
    total = len(items)

    # ---- pass 1: classify sides, extract keys, validate relations ----------
    sides = [False] * total
    keys: list = [None] * total
    seen_left = seen_right = False
    for idx, item in enumerate(items):
        record = item.record
        if item.relation == left_relation:
            sides[idx] = True
            keys[idx] = left_key(record)
            seen_left = True
        else:
            if item.relation != right_relation:
                joiner._check_relation(item.relation)
            keys[idx] = right_key(record)
            seen_right = True

    # ---- sync mirrors + batched pre-batch window cuts per side -------------
    # Left members probe the right index and vice versa.  The mirror is the
    # *pre-batch* snapshot; members inserted during this batch are served
    # from the kernel-local sorted deltas below, so static + delta counts
    # equal the live per-member window sizes of the scalar oracle exactly.
    left_cuts = right_cuts = None
    if seen_left and right_index.sync():
        lows = [keys[i] - width for i in range(total) if sides[i]]
        highs = [keys[i] + width for i in range(total) if sides[i]]
        left_cuts = right_index.window_cuts(lows, highs)
    if seen_right and left_index.sync():
        lows = [keys[i] - width for i in range(total) if not sides[i]]
        highs = [keys[i] + width for i in range(total) if not sides[i]]
        right_cuts = left_index.window_cuts(lows, highs)

    # Kernel-local intra-batch deltas, one per relation: sorted keys plus the
    # parallel items, bisected with the raw window bounds exactly like the
    # authoritative key list.  Maintained here (not read from the index) so
    # they stay correct even if the index mirror disables itself mid-batch.
    left_dkeys: list = []
    left_ditems: list[StreamTuple] = []
    right_dkeys: list = []
    right_ditems: list[StreamTuple] = []

    results: list[tuple[object, float]] = []
    append = results.append
    li = ri = 0
    for idx, item in enumerate(items):
        key = keys[idx]
        is_left = sides[idx]
        if is_left:
            opposite, own = right_index, left_index
            cuts = left_cuts
            cursor = li
            li += 1
            dkeys, ditems = right_dkeys, right_ditems
            own_dkeys, own_ditems = left_dkeys, left_ditems
        else:
            opposite, own = left_index, right_index
            cuts = right_cuts
            cursor = ri
            ri += 1
            dkeys, ditems = left_dkeys, left_ditems
            own_dkeys, own_ditems = right_dkeys, right_ditems
        low = key - width
        high = key + width
        if cuts is None:
            # Fallback: live bisect on the authoritative lists (mirror
            # unavailable or bounds not exactly float64-representable).  The
            # live window already includes intra-batch members.
            opposite_keys = opposite._keys
            lo = bisect_left(opposite_keys, low)
            hi = bisect_right(opposite_keys, high)
            inspected = hi - lo
            if inspected <= 0:
                append(([], 1.0))
            else:
                window = opposite._values[lo:hi]
                record = item.record
                if check is None:
                    matches: object = window
                elif is_left:
                    matches = [c for c in window if check(record, c.record)]
                else:
                    matches = [c for c in window if check(c.record, record)]
                append((matches, float(inspected)))
            own.insert(item)
            insort_pos = bisect_right(own_dkeys, key)
            own_dkeys.insert(insort_pos, key)
            own_ditems.insert(insort_pos, item)
            continue
        lo = cuts[0][cursor]
        hi = cuts[1][cursor]
        static_count = hi - lo
        dlo = bisect_left(dkeys, low)
        dhi = bisect_right(dkeys, high)
        delta_count = dhi - dlo
        inspected = static_count + delta_count
        if inspected <= 0:
            append(([], 1.0))
            own.insert(item)
            insort_pos = bisect_right(own_dkeys, key)
            own_dkeys.insert(insort_pos, key)
            own_ditems.insert(insort_pos, item)
            continue
        record = item.record
        if check is None:
            # Range-complete fast path: the whole window is the match set.
            static_arrivals = opposite._marrivals[lo:hi] if static_count else None
            static_ids = opposite._mids[lo:hi] if static_count else None
            delta_matched = ditems[dlo:dhi] if delta_count else ()
        elif (
            mask_eligible
            and opposite.all_float_keys
            and type(key) is float
        ):
            # Vectorised key-distance validation over the static window.
            if static_count:
                flags = np.abs(opposite._mkeys[lo:hi] - key) <= width
                hits = int(flags.sum())
                if hits == 0:
                    static_arrivals = static_ids = None
                elif hits == static_count:
                    static_arrivals = opposite._marrivals[lo:hi]
                    static_ids = opposite._mids[lo:hi]
                else:
                    static_arrivals = opposite._marrivals[lo:hi][flags]
                    static_ids = opposite._mids[lo:hi][flags]
            else:
                static_arrivals = static_ids = None
            if delta_count:
                if is_left:
                    delta_matched = [
                        c for c in ditems[dlo:dhi] if check(record, c.record)
                    ]
                else:
                    delta_matched = [
                        c for c in ditems[dlo:dhi] if check(c.record, record)
                    ]
            else:
                delta_matched = ()
        else:
            # General residual validation: recover the static window's
            # records through the mirrored log positions.
            if static_count:
                log = opposite._log
                positions = opposite._mpositions[lo:hi].tolist()
                if is_left:
                    flags = np.fromiter(
                        (bool(check(record, log[p].record)) for p in positions),
                        bool_,
                        static_count,
                    )
                else:
                    flags = np.fromiter(
                        (bool(check(log[p].record, record)) for p in positions),
                        bool_,
                        static_count,
                    )
                hits = int(flags.sum())
                if hits == 0:
                    static_arrivals = static_ids = None
                elif hits == static_count:
                    static_arrivals = opposite._marrivals[lo:hi]
                    static_ids = opposite._mids[lo:hi]
                else:
                    static_arrivals = opposite._marrivals[lo:hi][flags]
                    static_ids = opposite._mids[lo:hi][flags]
            else:
                static_arrivals = static_ids = None
            if delta_count:
                if is_left:
                    delta_matched = [
                        c for c in ditems[dlo:dhi] if check(record, c.record)
                    ]
                else:
                    delta_matched = [
                        c for c in ditems[dlo:dhi] if check(c.record, record)
                    ]
            else:
                delta_matched = ()
        if delta_matched:
            dcount = len(delta_matched)
            delta_arrivals = np.fromiter(
                (c.arrival_time for c in delta_matched), np.float64, dcount
            )
            delta_ids = np.fromiter(
                (c.tuple_id for c in delta_matched), np.int64, dcount
            )
            if static_arrivals is None:
                matches = MatchBlock(item, is_left, delta_arrivals, delta_ids)
            else:
                matches = MatchBlock(
                    item,
                    is_left,
                    np.concatenate((static_arrivals, delta_arrivals)),
                    np.concatenate((static_ids, delta_ids)),
                )
        elif static_arrivals is not None:
            # Sync replaces (never shifts) the mirror arrays — zero-copy.
            matches = MatchBlock(item, is_left, static_arrivals, static_ids)
        else:
            matches = []
        append((matches, float(inspected)))
        own.insert(item)
        insort_pos = bisect_right(own_dkeys, key)
        own_dkeys.insert(insort_pos, key)
        own_ditems.insert(insort_pos, item)
    return results


def _scan_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[object, float]]:
    left_relation = joiner.left_relation
    right_relation = joiner.right_relation
    left_index: ColumnarScanIndex = joiner._left_index
    right_index: ColumnarScanIndex = joiner._right_index
    check = joiner._check
    bool_ = np.bool_
    results: list[tuple[object, float]] = []
    append = results.append
    for item in items:
        record = item.record
        if item.relation == left_relation:
            is_left = True
            opposite = right_index
        else:
            if item.relation != right_relation:
                joiner._check_relation(item.relation)
            is_left = False
            opposite = left_index
        candidates = opposite._items
        inspected = len(candidates)
        if inspected:
            if is_left:
                flags = np.fromiter(
                    (bool(check(record, c.record)) for c in candidates),
                    bool_,
                    inspected,
                )
            else:
                flags = np.fromiter(
                    (bool(check(c.record, record)) for c in candidates),
                    bool_,
                    inspected,
                )
            hits = int(flags.sum())
            if hits == 0:
                matches = []
            else:
                # Scan columns are lazy prefix conversions of the append-only
                # store: zero-copy stable snapshots.
                arrivals, ids = opposite.cols()
                if hits == inspected:
                    matches = MatchBlock(item, is_left, arrivals, ids)
                else:
                    matches = MatchBlock(
                        item, is_left, arrivals[flags], ids[flags]
                    )
            append((matches, float(inspected)))
        else:
            append(([], 1.0))
        (left_index if is_left else right_index).insert(item)
    return results


def _columnar_probe_batch(
    joiner: LocalJoiner, items: Sequence[StreamTuple]
) -> list[tuple[object, float]]:
    """Set-at-a-time pass over the live columnar indexes, by predicate kind."""
    kind = joiner.predicate.kind
    if kind == "equi":
        return _equi_probe_batch(joiner, items)
    if kind == "band":
        return _band_probe_batch(joiner, items)
    return _scan_probe_batch(joiner, items)


# Registered unconditionally so "columnar" shows up in the choice lists even
# without NumPy; LocalJoiner/RunConfig raise the eager NUMPY_HINT error when
# it is *selected* without the extra installed.
register_probe_engine(
    "columnar",
    ProbeEngine(
        name="columnar",
        exact_key_fast_path=True,
        probe_batch=_columnar_probe_batch,
        index_factory=make_columnar_index,
        requires="numpy",
        bulk_commit=True,
    ),
)
