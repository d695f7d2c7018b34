"""Differential tests for the batch probe engines.

The ``scalar`` probe engine defines the reference semantics: per-member
``probe`` (full per-candidate predicate re-validation) followed by ``insert``.
The ``vectorized`` engine must produce, per member, exactly the same matches
and the same charged work units across every predicate kind — including
intra-batch self-join pairs — and the epoch state machine must charge exactly
the same probe work when probing tag-partitioned stores mid-migration.
"""

import random

import pytest
from repro.testing import assert_run_equivalent
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epochs import EpochJoinerState, JoinerPhase
from repro.core.mapping import GridPlacement, Mapping
from repro.core.migration import plan_migration
from repro.engine.stream import StreamTuple
from repro.joins.local import make_local_joiner
from repro.joins.predicates import (
    BandPredicate,
    CompositePredicate,
    EquiPredicate,
    NotEqualPredicate,
    ThetaPredicate,
    cross_join_reference,
)


def _predicate(name):
    if name == "equi":
        return EquiPredicate("k", "k")
    if name == "band":
        return BandPredicate("v", "v", width=2)
    if name == "theta":
        return ThetaPredicate(lambda l, r: l["v"] < r["v"], name="l.v < r.v")
    if name == "notequal":
        return NotEqualPredicate("k", "k")
    if name == "composite-equi":
        return CompositePredicate(
            EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
        )
    if name == "composite-band":
        return CompositePredicate(
            BandPredicate("v", "v", width=3), residuals=[lambda l, r: l["k"] != r["k"]]
        )
    if name == "band-exact":
        # The test workloads draw integer "v" values, so advertising range
        # completeness is truthful; the vectorized engine then skips
        # per-candidate re-validation while the scalar oracle still runs it.
        return BandPredicate("v", "v", width=2, range_complete=True)
    if name == "composite-band-exact":
        return CompositePredicate(
            BandPredicate("v", "v", width=3, range_complete=True),
            residuals=[lambda l, r: l["k"] != r["k"]],
        )
    raise ValueError(name)


PREDICATE_NAMES = [
    "equi",
    "band",
    "theta",
    "notequal",
    "composite-equi",
    "composite-band",
    "band-exact",
    "composite-band-exact",
]


def _mixed_stream(rng, count, keys=5, values=12):
    return [
        StreamTuple(
            relation=rng.choice(("R", "S")),
            record={"k": rng.randrange(keys), "v": rng.randrange(values)},
        )
        for _ in range(count)
    ]


def _pair_ids(item, matches, left_relation="R"):
    if item.relation == left_relation:
        return {(item.tuple_id, m.tuple_id) for m in matches}
    return {(m.tuple_id, item.tuple_id) for m in matches}


def _drive(joiner, items, batch_sizes, rng):
    """Feed ``items`` through probe_batch in randomly sized batches."""
    per_member = []
    pos = 0
    while pos < len(items):
        size = rng.choice(batch_sizes)
        batch = items[pos:pos + size]
        pos += size
        per_member.extend(zip(batch, joiner.probe_batch(batch)))
    return per_member


class TestProbeBatchDifferential:
    @pytest.mark.parametrize("name", PREDICATE_NAMES)
    def test_matches_and_work_equal_scalar_reference(self, name):
        rng = random.Random(hash(name) % 65536)
        items = _mixed_stream(rng, 200)
        scalar = make_local_joiner(_predicate(name), "R", "S", engine="scalar")
        vector = make_local_joiner(_predicate(name), "R", "S", engine="vectorized")
        batch_rng = random.Random(11)
        scalar_out = _drive(scalar, items, (1, 3, 7, 16), batch_rng)
        batch_rng = random.Random(11)
        vector_out = _drive(vector, items, (1, 3, 7, 16), batch_rng)
        for (s_item, (s_matches, s_work)), (v_item, (v_matches, v_work)) in zip(
            scalar_out, vector_out
        ):
            assert s_item is v_item
            assert _pair_ids(s_item, s_matches) == _pair_ids(v_item, v_matches)
            assert s_work == v_work, f"work diverged for {name} on tuple {s_item.tuple_id}"

    @pytest.mark.parametrize("name", PREDICATE_NAMES)
    def test_probe_batch_output_matches_cross_join_reference(self, name):
        rng = random.Random(hash(name) % 1024 + 1)
        items = _mixed_stream(rng, 150)
        predicate = _predicate(name)
        joiner = make_local_joiner(predicate, "R", "S", engine="vectorized")
        produced = set()
        for item, (matches, _work) in _drive(joiner, items, (4, 8, 13), random.Random(2)):
            produced |= _pair_ids(item, matches)
        left = [t for t in items if t.relation == "R"]
        right = [t for t in items if t.relation == "S"]
        expected = {
            (left[li].tuple_id, right[ri].tuple_id)
            for li, ri in cross_join_reference(
                [t.record for t in left], [t.record for t in right], predicate
            )
        }
        assert produced == expected

    def test_probe_batch_equals_probe_then_insert_on_one_joiner(self):
        """probe_batch on one joiner == probe+insert per member on a twin."""
        rng = random.Random(5)
        items = _mixed_stream(rng, 120)
        batched = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        sequential = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        for item, (matches, work) in _drive(batched, items, (6,), random.Random(1)):
            seq_matches, seq_work = sequential.probe(item)
            sequential.insert(item)
            assert _pair_ids(item, matches) == _pair_ids(item, seq_matches)
            assert work == seq_work

    def test_unknown_relation_rejected_in_batch(self):
        joiner = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        with pytest.raises(KeyError):
            joiner.probe_batch([StreamTuple(relation="T", record={"k": 1, "v": 0})])


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 6), st.integers(0, 9)),
            min_size=0,
            max_size=60,
        ),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_equi_batches_invariant(self, spec, batch_size):
        """Any batch partitioning yields the scalar per-member results."""
        items = [
            StreamTuple(relation="R" if is_left else "S", record={"k": k, "v": v})
            for is_left, k, v in spec
        ]
        scalar = make_local_joiner(EquiPredicate("k", "k"), "R", "S", engine="scalar")
        vector = make_local_joiner(EquiPredicate("k", "k"), "R", "S", engine="vectorized")
        scalar_results = scalar.probe_batch(items)  # one batch == full sequence
        vector_results = []
        for pos in range(0, len(items), batch_size):
            vector_results.extend(vector.probe_batch(items[pos:pos + batch_size]))
        assert len(scalar_results) == len(vector_results)
        for item, (s_matches, s_work), (v_matches, v_work) in zip(
            items, scalar_results, vector_results
        ):
            assert _pair_ids(item, s_matches) == _pair_ids(item, v_matches)
            assert s_work == v_work

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-20, 20)), min_size=0, max_size=50
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_batches_invariant(self, spec, width):
        items = [
            StreamTuple(relation="R" if is_left else "S", record={"v": v, "k": 0})
            for is_left, v in spec
        ]
        predicate = BandPredicate("v", "v", width=width)
        scalar = make_local_joiner(predicate, "R", "S", engine="scalar")
        vector = make_local_joiner(predicate, "R", "S", engine="vectorized")
        scalar_results = scalar.probe_batch(items)
        vector_results = vector.probe_batch(items)
        for item, (s_matches, s_work), (v_matches, v_work) in zip(
            items, scalar_results, vector_results
        ):
            assert _pair_ids(item, s_matches) == _pair_ids(item, v_matches)
            assert s_work == v_work

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-50, 50)), min_size=0, max_size=50
        ),
        st.integers(0, 7),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_complete_band_matches_scalar_oracle(self, spec, width, batch_size):
        """For integer-keyed bands, the range-complete fast path (no
        per-candidate re-validation) must be indistinguishable from the
        scalar oracle, which always re-validates — for any workload, width
        and batch partitioning."""
        items = [
            StreamTuple(relation="R" if is_left else "S", record={"v": v, "k": 0})
            for is_left, v in spec
        ]
        predicate = BandPredicate("v", "v", width=width, range_complete=True)
        scalar = make_local_joiner(predicate, "R", "S", engine="scalar")
        vector = make_local_joiner(predicate, "R", "S", engine="vectorized")
        scalar_results = scalar.probe_batch(items)
        vector_results = []
        for pos in range(0, len(items), batch_size):
            vector_results.extend(vector.probe_batch(items[pos:pos + batch_size]))
        for item, (s_matches, s_work), (v_matches, v_work) in zip(
            items, scalar_results, vector_results
        ):
            assert _pair_ids(item, s_matches) == _pair_ids(item, v_matches)
            assert s_work == v_work


class TestEngineRunEquivalence:
    """Run-level scalar-vs-vectorized pin through the shared helper.

    The scalar engine is the differential-testing oracle: on any full
    operator run it must produce a bit-identical simulation — outputs,
    migration sequence and timing, per-machine busy chains, probe work,
    latency and network volumes (``assert_run_equivalent`` with full
    strictness).  The per-operator/blocking sweep lives in
    ``test_batching_equivalence.py``; this pins the engines on both data
    planes at operator defaults, and the adaptive cells against the
    per-tuple reference plane too.
    """

    @pytest.mark.parametrize("query_name", ["EQ5", "BNCI"])
    @pytest.mark.parametrize("batching", ["per_tuple", "adaptive"])
    def test_scalar_oracle_is_bit_identical(self, small_dataset, query_name, batching):
        from repro.api import JoinSession, RunConfig
        from repro.data.queries import make_query
        from repro.engine.stream import interleave_streams, make_tuples

        query = make_query(query_name, small_dataset)
        rng = random.Random(5)
        left = make_tuples(
            query.left_relation, query.left_records, rng, query.left_tuple_size
        )
        right = make_tuples(
            query.right_relation, query.right_records, rng, query.right_tuple_size
        )
        order = interleave_streams(left, right, rng)
        results = {}
        planes = {"per_tuple", batching}
        for engine in ("scalar", "vectorized"):
            for plane in planes:
                config = RunConfig(
                    machines=8, seed=5, warmup_tuples=16, probe_engine=engine,
                    batching=plane,
                )
                results[engine, plane] = JoinSession(query, config=config).run(
                    arrival_order=order, collect_outputs=True
                )
        assert_run_equivalent(
            results["scalar", batching], results["vectorized", batching],
            events=True, label=f"{query_name}/{batching}",
        )
        assert_run_equivalent(
            results["scalar", "per_tuple"], results["vectorized", batching],
            label=f"{query_name}/{batching} vs per_tuple",
        )


def _shadow_candidate_count(stored_by_tag, item):
    """Candidates a union-store probe of ``item`` would inspect (reference)."""
    key = item.record["k"]
    count = 0
    for members in stored_by_tag.values():
        for member in members:
            if member.relation != item.relation and member.record["k"] == key:
                count += 1
    return count


class TestMidMigrationTagPartitions:
    """All four tag sets live: partitioned probes charge seed-exact work."""

    def _migrating_state(self):
        old_placement = GridPlacement(mapping=Mapping(2, 2))
        new_placement = GridPlacement(mapping=Mapping(1, 4))
        plan = plan_migration(old_placement, new_placement)
        predicate = EquiPredicate("k", "k")
        store = make_local_joiner(predicate, "R", "S")
        state = EpochJoinerState(
            machine_id=0, store=store, num_reshufflers=2, left_relation="R"
        )
        return state, plan, predicate

    def _populate_all_tag_sets(self, state, plan, rng):
        """Returns {tag: [tuples]} mirroring the state's partitions."""
        stored = {"tau": [], "delta": [], "delta_prime": [], "mu": []}
        # τ: normal-phase arrivals (epoch 0).
        for _ in range(12):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 0},
                salt=rng.random(),
            )
            state.handle_data(item)
            stored["tau"].append(item)
        # First signal (1 of 2): τ is split into keep/drop partitions.
        state.handle_signal(1, plan, "reshuffler-0")
        assert state.phase is JoinerPhase.MIGRATING
        # Δ: old-epoch tuples during the migration.
        for _ in range(8):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 1},
                salt=rng.random(),
                epoch=0,
            )
            state.handle_data(item)
            stored["delta"].append(item)
        # µ: relocations from other joiners.
        for _ in range(6):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 2},
                salt=rng.random(),
                epoch=0,
            )
            state.handle_migrated(item)
            stored["mu"].append(item)
        # Δ': new-epoch tuples.
        for _ in range(8):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 3},
                salt=rng.random(),
                epoch=1,
            )
            state.handle_data(item)
            stored["delta_prime"].append(item)
        return stored

    def test_probe_work_is_union_store_exact(self):
        """Each protocol probe charges max(candidates in the whole state, 1)
        per tuple-set join — identical to the unpartitioned union store."""
        rng = random.Random(17)
        state, plan, predicate = self._migrating_state()
        stored = self._populate_all_tag_sets(state, plan, rng)
        for tags_live in stored.values():
            assert tags_live, "scenario must exercise every tag set"

        # A Δ' probe joins twice: against µ ∪ Δ' and against Keep(τ ∪ Δ).
        probe = StreamTuple(
            relation="R", record={"k": 1, "v": 9}, salt=rng.random(), epoch=1
        )
        union_count = _shadow_candidate_count(stored, probe)
        actions = state.handle_data(probe)
        assert actions.probe_work == 2 * max(union_count, 1)
        stored["delta_prime"].append(probe)

        # A Δ probe joins against τ ∪ Δ, plus Δ' when the plan keeps it.
        probe = StreamTuple(
            relation="S", record={"k": 2, "v": 9}, salt=rng.random(), epoch=0
        )
        union_count = _shadow_candidate_count(stored, probe)
        keep = plan.keeps(0, "S", probe.salt)
        actions = state.handle_data(probe)
        expected_probes = 2 if keep else 1
        assert actions.probe_work == expected_probes * max(union_count, 1)

    def test_batch_falls_back_mid_migration(self):
        """handle_data_batch mid-migration equals per-tuple handle_data."""
        rng = random.Random(23)
        state_a, plan_a, _ = self._migrating_state()
        state_b, plan_b, _ = self._migrating_state()
        stored = self._populate_all_tag_sets(state_a, plan_a, rng)
        # Replay the exact same tuples into the twin state.
        state_b_events = stored["tau"]
        for item in state_b_events:
            state_b.handle_data(item)
        state_b.handle_signal(1, plan_b, "reshuffler-0")
        for item in stored["delta"]:
            state_b.handle_data(item)
        for item in stored["mu"]:
            state_b.handle_migrated(item)
        for item in stored["delta_prime"]:
            state_b.handle_data(item)

        batch = [
            StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 7},
                salt=0.3 + 0.05 * i,
                epoch=1,
            )
            for i in range(6)
        ]
        batched_actions = state_a.handle_data_batch(batch)
        singly_actions = [state_b.handle_data(item) for item in batch]
        for got, want in zip(batched_actions, singly_actions):
            assert got.probe_work == want.probe_work
            got_pairs = {(l.tuple_id, r.tuple_id) for l, r in got.matches}
            want_pairs = {(l.tuple_id, r.tuple_id) for l, r in want.matches}
            assert got_pairs == want_pairs
            assert got.stored == want.stored

    def test_finalize_merges_partitions_and_discards_drops(self):
        rng = random.Random(31)
        state, plan, _ = self._migrating_state()
        stored = self._populate_all_tag_sets(state, plan, rng)
        before = state.stored_count()
        # Close the migration: second signal + all expected end markers.
        state.handle_signal(1, plan, "reshuffler-1")
        assert state.phase is JoinerPhase.DRAINED
        for sender in plan.senders_to(0):
            state.register_migration_end(sender)
        result = state.finalize()
        assert state.phase is JoinerPhase.NORMAL
        assert state.current_epoch == 1
        # Conservation: merged survivors + discards == everything stored.
        assert state.stored_count() + len(result.discarded) == before
        # Discards are exactly the old tuples the plan does not keep.
        old = stored["tau"] + stored["delta"]
        expected_drop = {
            t.tuple_id
            for t in old
            if not plan.keeps(0, "R" if t.relation == "R" else "S", t.salt)
        }
        assert {t.tuple_id for t in result.discarded} == expected_drop
        # The merged store serves post-migration probes over all survivors.
        probe = StreamTuple(relation="R", record={"k": 3, "v": 9}, epoch=1, salt=0.9)
        survivors = {
            t.tuple_id
            for members in (
                [t for t in old if t.tuple_id not in expected_drop],
                stored["mu"],
                stored["delta_prime"],
            )
            for t in members
            if t.relation == "S" and t.record["k"] == 3
        }
        actions = state.handle_data(probe)
        assert {r.tuple_id for _l, r in actions.matches} == survivors
