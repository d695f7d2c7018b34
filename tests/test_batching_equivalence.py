"""Data-plane and probe-engine equivalence, blocking protocol included.

The operator has one data plane with two settings: ``batching="adaptive"``
(the default, receiver-side draining) and ``batching="per_tuple"`` (every
message handled alone, the reference).  For every operator and protocol the
adaptive plane must be a *bit-identical* simulation of the per-tuple plane,
and the vectorized probe engine (batch probes over drained runs, bulk cost
commits) must be a bit-identical simulation of the scalar engine on the same
plane — outputs, virtual times, probe work and network traffic.  Both runs
of a pair are fed the *same* arrival order (the same ``StreamTuple``
objects) so tuple ids and salts are directly comparable.

The blocking protocol always runs on the per-tuple plane: a ``blocking=True``
run on the default config must equal ``batching="per_tuple", blocking=True``
down to the heap events.
"""

import random

import pytest
from repro.testing import assert_run_equivalent

from repro.api import RunConfig
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.engine.stream import interleave_streams, make_tuples


def _arrival_order(query, seed):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


def _run(operator_class, query, order, **kwargs):
    config = RunConfig(machines=8, seed=5, **kwargs)
    operator = operator_class(query, config=config)
    return operator.run(arrival_order=order, collect_outputs=True)


def _assert_equivalent(operator_class, query, blocking=False, **kwargs):
    order = _arrival_order(query, seed=5)
    reference = _run(
        operator_class, query, order,
        batching="per_tuple", probe_engine="scalar", blocking=blocking, **kwargs,
    )
    assert reference.outputs is not None
    assert reference.batching == "per_tuple"
    for engine in ("scalar", "vectorized"):
        default = _run(
            operator_class, query, order, probe_engine=engine, blocking=blocking, **kwargs
        )
        assert default.probe_work > 0
        # Same plane as the reference when blocking, so the event plumbing
        # must match too; otherwise draining legitimately changes it.
        assert default.batching == ("per_tuple" if blocking else "adaptive")
        assert_run_equivalent(
            reference, default, events=blocking, label=f"default plane/{engine}"
        )
    per_tuple = _run(
        operator_class, query, order,
        batching="per_tuple", probe_engine="vectorized", blocking=blocking, **kwargs,
    )
    assert_run_equivalent(reference, per_tuple, events=True, label="per_tuple/vectorized")


class TestBatchedEquivalence:
    @pytest.mark.parametrize("blocking", [False, True])
    def test_adaptive_equi_join(self, small_dataset, blocking):
        query = make_query("EQ5", small_dataset)
        _assert_equivalent(
            AdaptiveJoinOperator, query, warmup_tuples=16, blocking=blocking
        )

    def test_adaptive_under_skew(self, skewed_dataset):
        query = make_query("EQ5", skewed_dataset)
        _assert_equivalent(AdaptiveJoinOperator, query, warmup_tuples=16)

    @pytest.mark.parametrize("blocking", [False, True])
    def test_static_operator(self, small_dataset, blocking):
        query = make_query("EQ5", small_dataset)
        _assert_equivalent(StaticMidOperator, query, blocking=blocking)

    def test_adaptive_band_join(self, small_dataset):
        query = make_query("BNCI", small_dataset)
        _assert_equivalent(AdaptiveJoinOperator, query, warmup_tuples=16)


class TestBatchedAccounting:
    def test_batching_reduces_events(self, small_dataset):
        """Receiver draining amortises simulator events without changing the run."""
        query = make_query("EQ5", small_dataset)
        order = _arrival_order(query, seed=5)
        per_tuple = _run(
            AdaptiveJoinOperator, query, order, batching="per_tuple", warmup_tuples=16
        )
        adaptive = _run(AdaptiveJoinOperator, query, order, warmup_tuples=16)
        assert adaptive.events_processed * 3 < per_tuple.events_processed
        assert_run_equivalent(per_tuple, adaptive, label="adaptive")

    def test_batching_recorded_in_result(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        order = _arrival_order(query, seed=5)
        adaptive = _run(StaticMidOperator, query, order)
        assert adaptive.batching == "adaptive"
        assert adaptive.batch_histogram
        per_tuple = _run(StaticMidOperator, query, order, batching="per_tuple")
        assert per_tuple.batching == "per_tuple"
        assert per_tuple.batch_histogram is None
        assert per_tuple.events_processed > adaptive.events_processed > 0

    def test_invalid_batching_rejected(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        with pytest.raises(ValueError, match="choices: adaptive, per_tuple"):
            StaticMidOperator(query, config=RunConfig(machines=8), batching="fixed")
