"""The differential-testing helpers of :mod:`repro.testing` themselves."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import RunConfig
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.engine.stream import interleave_streams, make_tuples
from repro.testing import (
    IGNORABLE_FIELDS,
    TIMING_FIELDS,
    assert_exact_join,
    assert_run_equivalent,
)

SEED = 5


@pytest.fixture(scope="module")
def scenario(small_dataset):
    query = make_query("EQ5", small_dataset)
    rng = random.Random(SEED)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return query, left, right, interleave_streams(left, right, rng)


def _run(operator_class, query, order, **overrides):
    config = RunConfig(machines=8, seed=SEED, warmup_tuples=16, **overrides)
    return operator_class(query, config=config).run(
        arrival_order=order, collect_outputs=True
    )


def _run_twice(operator_class, scenario):
    query, _left, _right, order = scenario
    return _run(operator_class, query, order), _run(operator_class, query, order)


class TestIgnoreParameter:
    def test_ignoring_fields_keeps_the_rest_strict(self, scenario):
        """Naming fields in ignore= must not loosen fields that match."""
        first, second = _run_twice(AdaptiveJoinOperator, scenario)
        assert_run_equivalent(
            first, second, events=True,
            ignore=("execution_time", "machine_busy", "heap_events"),
            label="ignore-some",
        )

    def test_default_is_strict(self, scenario):
        """With ignore= unset, a timing delta still fails loudly."""
        first, second = _run_twice(AdaptiveJoinOperator, scenario)
        skewed = dataclasses.replace(first, execution_time=first.execution_time + 1.0)
        with pytest.raises(AssertionError, match="execution_time"):
            assert_run_equivalent(skewed, second, label="strict")
        # ...and naming the skewed field is exactly what lets it pass.
        assert_run_equivalent(skewed, second, ignore=("execution_time",), label="excused")

    def test_unknown_ignore_name_raises(self, scenario):
        first, second = _run_twice(StaticMidOperator, scenario)
        with pytest.raises(ValueError, match="unknown ignore field"):
            assert_run_equivalent(first, second, ignore=("exec_time",))

    def test_semantic_baseline_is_not_ignorable(self, scenario):
        """Join outputs, counts, migrations and mappings can never be waved
        away — they are not in IGNORABLE_FIELDS and ignore= rejects them."""
        for baseline in ("outputs", "output_count", "migrations", "final_mapping"):
            assert baseline not in IGNORABLE_FIELDS
        first, second = _run_twice(StaticMidOperator, scenario)
        with pytest.raises(ValueError, match="never skippable"):
            assert_run_equivalent(first, second, ignore=("outputs",))

    def test_coarse_switches_are_field_group_shorthand(self, scenario):
        """timing=False is exactly ignore=TIMING_FIELDS."""
        query, _left, _right, order = scenario
        # Pacing moves every virtual time of a static run, never its joins.
        bursty = _run(StaticMidOperator, query, order)
        paced = _run(StaticMidOperator, query, order, inter_arrival=0.1)
        assert paced.execution_time != bursty.execution_time
        assert_run_equivalent(bursty, paced, timing=False, network=False, label="coarse")
        assert_run_equivalent(
            bursty, paced,
            ignore=TIMING_FIELDS | {"routing_volume", "migration_volume",
                                    "total_network_volume"},
            label="explicit",
        )


class TestAssertExactJoin:
    def test_accepts_the_exact_join(self, scenario):
        query, left, right, order = scenario
        result = _run(AdaptiveJoinOperator, query, order)
        assert result.output_count > 0
        assert_exact_join(result, query, left, right)

    def test_catches_a_substituted_pair_the_count_misses(self, scenario):
        """A wrong pair in place of a right one keeps the count and has no
        duplicate, so only the pair multiset can tell."""
        query, left, right, order = scenario
        result = _run(AdaptiveJoinOperator, query, order)
        outputs = list(result.outputs)
        left_id, _right_id = outputs[0]
        produced = set(outputs)
        wrong = next(
            (left_id, item.tuple_id)
            for item in right
            if (left_id, item.tuple_id) not in produced
        )
        outputs[0] = wrong
        tampered = dataclasses.replace(result, outputs=outputs)
        with pytest.raises(AssertionError, match="1 pair\\(s\\) missing"):
            assert_exact_join(tampered, query, left, right)

    def test_catches_a_duplicate(self, scenario):
        query, left, right, order = scenario
        result = _run(AdaptiveJoinOperator, query, order)
        outputs = list(result.outputs)
        outputs[1] = outputs[0]
        tampered = dataclasses.replace(result, outputs=outputs)
        with pytest.raises(AssertionError, match="1 extra or duplicated"):
            assert_exact_join(tampered, query, left, right)

    def test_requires_collected_outputs(self, scenario):
        query, left, right, order = scenario
        result = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=SEED)).run(
            arrival_order=order
        )
        with pytest.raises(AssertionError, match="collect_outputs"):
            assert_exact_join(result, query, left, right)
