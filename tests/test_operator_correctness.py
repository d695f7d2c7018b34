"""End-to-end correctness of every operator inside the simulated cluster.

Definition 4.4: regardless of operator, partitioning, skew, arrival order and
migrations, the produced output must be exactly the join of the two input
streams — complete and without duplicates.  Every run is checked as a
multiset of (left record, right record) pairs against the nested-loop
reference (:func:`repro.testing.assert_exact_join`), not just by count.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.api import JoinSession, RunConfig, UnsupportedKeyError
from repro.core.baselines import (
    StaticMidOperator,
    StaticOptOperator,
    SymmetricHashOperator,
    make_operator,
)
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.data.tpch import generate_dataset
from repro.engine.columns import HAS_NUMPY
from repro.engine.stream import fluctuating_order, interleave_streams, make_tuples
from repro.joins.predicates import BandPredicate, CompositePredicate, EquiPredicate
from repro.testing import assert_exact_join


def _tuples(query, seed):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return left, right, rng


def _assert_correct(operator, query, pattern="uniform"):
    """Run ``operator`` on a seeded arrival order and check the exact join."""
    left, right, rng = _tuples(query, operator.seed)
    order = interleave_streams(left, right, rng, pattern=pattern)
    result = operator.run(arrival_order=order, collect_outputs=True)
    assert_exact_join(result, query, left, right)
    return result


class TestOperatorOutputs:
    @pytest.mark.parametrize("operator_kind", ["Dynamic", "StaticMid", "StaticOpt", "SHJ"])
    def test_equi_join_under_skew(self, skewed_dataset, operator_kind):
        query = make_query("EQ5", skewed_dataset)
        operator = make_operator(operator_kind, query, 8, seed=3)
        _assert_correct(operator, query)

    @pytest.mark.parametrize("operator_kind", ["Dynamic", "StaticMid", "StaticOpt"])
    def test_band_join(self, small_dataset, operator_kind):
        query = make_query("BNCI", small_dataset)
        operator = make_operator(operator_kind, query, 8, seed=3)
        _assert_correct(operator, query)

    def test_theta_join(self, small_dataset):
        query = make_query("THETA_NEQ", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=4, seed=1))
        _assert_correct(operator, query)

    def test_shj_rejects_non_equi(self, small_dataset):
        query = make_query("BNCI", small_dataset)
        with pytest.raises(ValueError):
            SymmetricHashOperator(query, config=RunConfig(machines=8))

    def test_non_power_of_two_machines_rejected(self, eq5_query):
        with pytest.raises(ValueError):
            AdaptiveJoinOperator(eq5_query, config=RunConfig(machines=12))

    @pytest.mark.parametrize("pattern", ["uniform", "r_first", "s_first", "alternate"])
    def test_arrival_order_does_not_affect_output(self, small_dataset, pattern):
        query = make_query("EQ7", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=5, warmup_tuples=16))
        _assert_correct(operator, query, pattern=pattern)

    def test_correct_under_fluctuating_arrivals_with_migrations(self, small_dataset):
        query = make_query("FLUCT_SYM", small_dataset)
        left, right, _rng = _tuples(query, 9)
        order = fluctuating_order(left, right, fluctuation_factor=4, warmup=32)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=9, warmup_tuples=32))
        result = operator.run(arrival_order=order, collect_outputs=True)
        assert_exact_join(result, query, left, right)

    def test_blocking_actuation_is_also_correct(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=2, blocking=True, warmup_tuples=16))
        _assert_correct(operator, query)

    def test_row_major_layout_is_also_correct(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=2, layout="row_major", warmup_tuples=16))
        _assert_correct(operator, query)

    def test_correct_with_memory_pressure_and_spills(self, skewed_dataset):
        query = make_query("EQ5", skewed_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=2, memory_capacity=20.0))
        result = _assert_correct(operator, query)
        assert result.spilled

    def test_epsilon_variants_are_correct(self, small_dataset):
        query = make_query("EQ7", small_dataset)
        for epsilon in (0.25, 0.5, 1.0):
            operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=4, epsilon=epsilon, warmup_tuples=16))
            _assert_correct(operator, query)

    def test_determinism_same_seed_same_result(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        results = [
            AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=13)).run(collect_outputs=True) for _ in range(2)
        ]
        assert results[0].output_count == results[1].output_count
        assert results[0].execution_time == pytest.approx(results[1].execution_time)
        assert results[0].migrations == results[1].migrations


class TestRunResultContents:
    def test_result_fields_are_populated(self, eq5_query):
        result = AdaptiveJoinOperator(eq5_query, config=RunConfig(machines=8, seed=1)).run()
        assert result.operator == "Dynamic"
        assert result.query == "EQ5"
        assert result.machines == 8
        assert result.execution_time > 0
        assert result.throughput > 0
        assert result.max_ilf > 0
        assert result.total_storage > 0
        assert result.final_mapping.machines == 8
        assert 0 < result.progress_series[-1][0] <= 1.0
        row = result.summary_row()
        assert row["operator"] == "Dynamic" and row["machines"] == 8

    def test_static_operators_never_migrate(self, eq5_query):
        for cls in (StaticMidOperator, StaticOptOperator):
            result = cls(eq5_query, config=RunConfig(machines=8, seed=1)).run()
            assert result.migrations == 0
            assert result.migration_volume == 0.0


LEFT_BAND_KEYS = (1.0, 2.0, 3.5, float("nan"))
RIGHT_BAND_KEYS = (1.5, 2.0, 3.0, float("nan"))
ENGINES = ["scalar", "vectorized"] + (["columnar"] if HAS_NUMPY else [])


def _band_query(left_keys, right_keys, predicate=None):
    return JoinQuery(
        name="HOSTILE_BAND",
        left_relation="R",
        right_relation="S",
        left_records=[{"k": key} for key in left_keys],
        right_records=[{"k": key} for key in right_keys],
        predicate=predicate or BandPredicate("k", "k", 0.6),
    )


def _hostile_query():
    left = [LEFT_BAND_KEYS[i % 4] for i in range(60)]
    right = [RIGHT_BAND_KEYS[i % 4] for i in range(80)]
    return _band_query(left, right)


class TestHostileBandKeys:
    """Band keys outside the real numbers are rejected at ingestion.

    NaN breaks the ordered indexes' bisect order (silently losing matches)
    and ``None`` cannot be compared at all, so both are refused with a named
    error before any simulation event runs — on every probe engine.
    """

    @pytest.mark.parametrize("batch_size", [1, None])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_keys_rejected_on_every_engine(self, engine, batch_size):
        query = _hostile_query()
        session = JoinSession(
            query, config=RunConfig(machines=4, probe_engine=engine, batch_size=batch_size)
        )
        with pytest.raises(UnsupportedKeyError) as caught:
            session.run(collect_outputs=True)
        error = caught.value
        assert error.attribute == "k"
        assert error.relation in ("R", "S")
        assert math.isnan(error.record["k"])

    @pytest.mark.parametrize("batch_size", [1, None])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_nan_free_subset_is_the_exact_join(self, engine, batch_size):
        hostile = _hostile_query()
        query = _band_query(
            [r["k"] for r in hostile.left_records if not math.isnan(r["k"])],
            [r["k"] for r in hostile.right_records if not math.isnan(r["k"])],
        )
        operator = AdaptiveJoinOperator(
            query,
            config=RunConfig(machines=4, seed=3, probe_engine=engine, batch_size=batch_size),
        )
        _assert_correct(operator, query)

    @pytest.mark.parametrize("bad_key", [None, "2.0", float("nan")])
    def test_push_rejects_before_any_event(self, bad_key):
        session = JoinSession(_band_query([], []), config=RunConfig(machines=4))
        session.open_stream()
        with pytest.raises(UnsupportedKeyError, match="attribute 'k'"):
            session.push(left=[{"k": 1.0}, {"k": bad_key}], right=[{"k": 1.5}])
        snapshot = session.snapshot()
        assert snapshot.tuples_pushed == 0
        assert snapshot.events_processed == 0

    def test_none_key_is_a_named_error_not_a_type_error(self):
        query = _band_query([1.0, None], [1.5, 2.0])
        with pytest.raises(UnsupportedKeyError) as caught:
            JoinSession(query, config=RunConfig(machines=4)).run()
        assert caught.value.relation == "R"
        assert caught.value.record == {"k": None}

    def test_band_part_of_composite_is_checked(self):
        predicate = CompositePredicate(BandPredicate("k", "k", 0.6), residuals=[lambda l, r: True])
        query = _band_query([1.0, 2.0], [1.5, float("nan")], predicate=predicate)
        with pytest.raises(UnsupportedKeyError) as caught:
            JoinSession(query, config=RunConfig(machines=4)).run()
        assert caught.value.relation == "S"

    def test_real_keys_of_any_numeric_type_are_accepted(self):
        query = _band_query([1, 2.0, Fraction(7, 2), True], [1.5, 2, 3.0])
        left, right, rng = _tuples(query, 5)
        order = interleave_streams(left, right, rng)
        result = JoinSession(query, config=RunConfig(machines=4, seed=5)).run(
            arrival_order=order, collect_outputs=True
        )
        assert_exact_join(result, query, left, right)

    # numpy evaluates inf - inf to NaN (with a RuntimeWarning) in the columnar
    # key-distance mask; NaN <= width is False, the reference's answer too.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_infinite_keys_are_accepted_and_exact(self, engine):
        """Infinities are ordered reals: accepted, and joined as the reference
        joins them (inf - inf is NaN, so two infinities never match)."""
        inf = float("inf")
        query = _band_query([1.0, inf, -inf, 2.0] * 5, [1.5, inf, -inf, 3.0] * 5)
        left, right, rng = _tuples(query, 11)
        order = interleave_streams(left, right, rng)
        result = JoinSession(
            query, config=RunConfig(machines=4, seed=11, probe_engine=engine)
        ).run(arrival_order=order, collect_outputs=True)
        assert_exact_join(result, query, left, right)

    def test_equi_joins_get_no_key_check(self):
        query = _band_query(
            [1.0, float("nan"), None], [1.0, None], predicate=EquiPredicate("k", "k")
        )
        result = JoinSession(query, config=RunConfig(machines=4)).run()
        assert result.output_count == 2  # 1.0 = 1.0 and None = None
