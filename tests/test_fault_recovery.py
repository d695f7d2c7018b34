"""Fault injection, durable checkpointing, and migration-driven recovery.

Pins the fault-tolerant join plane's contract:

* **Fault-free bit-identity** — turning checkpointing on (``checkpoint_interval``
  set, no faults) must not perturb the simulation at all: the run is
  bit-identical to the reference down to heap events, on both data planes.
* **Crash twins** — a run with a crash in its fault schedule must recover to
  the *same join output multiset* as its fault-free twin over the same
  arrival order, across predicate kinds (equi / band / composite) and data
  planes (per-tuple / adaptive), with ``recovery_time > 0`` and the crash
  counted in ``faults_injected``.  Every twin is itself checked pair by pair
  against the nested-loop reference join (``assert_exact_join``).
* **Deterministic replay** — running the same crash schedule twice is
  bit-identical (``events=True``), so recovery itself is deterministic.
* **Error paths** — overlapping faults and invalid :class:`FaultSpec`
  construction (non-finite times included) fail with actionable messages.

Twin runs share ONE materialised arrival order (``StreamTuple`` ids come from
a global counter, so independently materialised streams get different ids).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, crash, crash_after_events
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.faults import FaultSpec, normalize_fault_schedule
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import CompositePredicate, EquiPredicate
from repro.storage import CheckpointStore
from repro.testing import assert_exact_join, assert_run_equivalent

MACHINES = 8
SEED = 5


def _composite_query(rng: random.Random) -> JoinQuery:
    left = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(40)]
    right = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(360)]
    return JoinQuery(
        name="COMPOSITE",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=CompositePredicate(
            EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
        ),
        description="equi join with a parity residual (recovery scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "composite": _composite_query(random.Random(17)),
    }


def _arrival_order(query, seed=SEED):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


def _config(**overrides):
    return RunConfig(machines=MACHINES, seed=SEED, warmup_tuples=16, **overrides)


def _run(query, order, operator_class=AdaptiveJoinOperator, **overrides):
    operator = operator_class(query, config=_config(**overrides))
    return operator.run(arrival_order=order, collect_outputs=True)


def _twin_run(query, order, **overrides):
    """A fault-free twin, checked against the nested-loop reference join."""
    twin = _run(query, order, **overrides)
    left = [item for item in order if item.relation == query.left_relation]
    right = [item for item in order if item.relation != query.left_relation]
    assert_exact_join(twin, query, left, right, label=f"{query.name} twin")
    return twin


# Per-plane overrides with a smoke-verified crash anchor: the per-tuple plane
# processes ~1380 events on the small EQ5 workload, the adaptive plane ~253,
# so each plane gets an anchor that reliably lands mid-run.
PLANES = {
    "per_tuple": {"batching": "per_tuple", "_crash_events": 500},
    "adaptive": {"_crash_events": 200},
}


def _plane_overrides(plane):
    overrides = dict(PLANES[plane])
    events = overrides.pop("_crash_events")
    return overrides, events


# ---------------------------------------------------------------------------
# CheckpointStore (durable log) unit tests
# ---------------------------------------------------------------------------

class TestCheckpointStore:
    def test_log_and_load_deltas(self):
        store = CheckpointStore()
        assert store.log("j0", ("data", 1)) == 1
        assert store.log("j0", ("data", 2)) == 2
        snapshot, deltas = store.load("j0")
        assert snapshot is None
        assert deltas == [("data", 1), ("data", 2)]
        store.close()

    def test_snapshot_truncates_delta_log(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.log("j0", ("data", 2))
        store.snapshot("j0", {"epoch": 3})
        assert store.delta_count("j0") == 0
        store.log("j0", ("data", 3))
        snapshot, deltas = store.load("j0")
        assert snapshot == {"epoch": 3}
        assert deltas == [("data", 3)]
        assert store.snapshots_taken == 1
        store.close()

    def test_tasks_are_isolated(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.log("j1", ("mu", 9))
        snapshot, deltas = store.load("j1")
        assert snapshot is None
        assert deltas == [("mu", 9)]
        store.close()

    def test_bytes_written_accumulates(self):
        store = CheckpointStore()
        store.log("j0", ("data", "x" * 64))
        store.flush()
        written = store.bytes_written
        assert written > 0
        store.snapshot("j0", {"big": "y" * 256})
        assert store.bytes_written > written
        store.close()

    def test_rows_are_isolated_from_later_mutation(self):
        store = CheckpointStore()
        entry = ["data", [1, 2]]
        store.log("j0", entry)
        state = {"epoch": 1, "relations": {"R": [1, 2]}}
        store.snapshot("j0", state)
        store.log("j0", entry)
        entry[1].append(3)
        state["relations"]["R"].append(3)
        state["epoch"] = 2
        snapshot, deltas = store.load("j0")
        assert snapshot == {"epoch": 1, "relations": {"R": [1, 2]}}
        assert deltas == [["data", [1, 2]]]
        store.close()


# ---------------------------------------------------------------------------
# FaultSpec validation
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_helpers_round_trip(self):
        spec = crash(3, 12.5, restart_after=2.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        spec = crash_after_events(1, 400)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        ("kwargs", "pattern"),
        [
            ({"machine": -1, "at_time": 1.0}, "machine"),
            ({"machine": True, "at_time": 1.0}, "machine"),
            ({"machine": 0}, "exactly one"),
            ({"machine": 0, "at_time": 1.0, "after_events": 5}, "exactly one"),
            ({"machine": 0, "at_time": -0.5}, "at_time"),
            ({"machine": 0, "after_events": 0}, "after_events"),
            ({"machine": 0, "at_time": 1.0, "restart_after": 0.0}, "restart_after"),
            ({"machine": 0, "at_time": math.nan}, "at_time"),
            ({"machine": 0, "at_time": math.inf}, "at_time"),
            ({"machine": 0, "at_time": 1.0, "restart_after": math.nan}, "restart_after"),
            ({"machine": 0, "at_time": 1.0, "restart_after": math.inf}, "restart_after"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            FaultSpec(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"machine": 0, "at_time": 1.0, "delay": 3})

    def test_normalize_accepts_dicts_and_specs(self):
        schedule = normalize_fault_schedule(
            [crash(1, 5.0), {"machine": 2, "after_events": 100}]
        )
        assert all(isinstance(f, FaultSpec) for f in schedule)
        assert schedule[1].after_events == 100


# ---------------------------------------------------------------------------
# Fault-free checkpointing is invisible (acceptance pin)
# ---------------------------------------------------------------------------

class TestCheckpointingBitIdentity:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_fault_free_checkpointed_run_is_bit_identical(self, queries, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        overrides, _ = _plane_overrides(plane)
        reference = _run(query, order, **overrides)
        checkpointed = _run(query, order, checkpoint_interval=50, **overrides)
        assert_run_equivalent(
            reference, checkpointed, events=True, label=f"checkpointing:{plane}"
        )
        assert checkpointed.faults_injected == 0
        assert checkpointed.recovery_time == 0.0
        assert checkpointed.checkpoint_overhead > 0.0


# ---------------------------------------------------------------------------
# Crash + recovery conformance matrix
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("kind", ["equi", "band", "composite"])
    def test_crashed_run_recovers_to_fault_free_output(self, queries, kind, plane):
        query = queries[kind]
        order = _arrival_order(query)
        overrides, _ = _plane_overrides(plane)
        twin = _twin_run(query, order, checkpoint_interval=50, **overrides)
        # Anchor at the twin's mid-run point so the crash fires on every
        # query x plane cell regardless of its absolute event count.
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            fault_schedule=[crash_after_events(3, max(1, twin.events_processed // 2))],
            **overrides,
        )
        assert crashed.faults_injected == 1, f"{kind}/{plane}: crash never fired"
        assert crashed.recovery_time > 0.0
        assert sorted(crashed.outputs) == sorted(twin.outputs), f"{kind}/{plane}"
        assert crashed.output_count == twin.output_count

    def test_virtual_time_anchored_crash(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _twin_run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash(3, twin.execution_time * 0.4)],
        )
        assert crashed.faults_injected == 1
        assert crashed.recovery_time > 0.0
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_controller_machine_crash(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _twin_run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash(0, twin.execution_time * 0.4)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_static_operator_recovers(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _twin_run(
            query, order, operator_class=StaticMidOperator,
            checkpoint_interval=50, batching="per_tuple",
        )
        crashed = _run(
            query,
            order,
            operator_class=StaticMidOperator,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_crash_without_checkpointing_still_recovers(self, queries):
        # No checkpoint_interval: recovery replays the full journal from the
        # implicit empty snapshot.
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _twin_run(query, order, batching="per_tuple")
        crashed = _run(
            query,
            order,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_replay_is_deterministic(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        kwargs = dict(
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500)],
        )
        first = _run(query, order, **kwargs)
        second = _run(query, order, **kwargs)
        assert first.faults_injected == 1
        assert_run_equivalent(first, second, events=True, label="replay-twice")
        assert first.recovery_time == second.recovery_time
        assert first.tuples_replayed == second.tuples_replayed

    def test_explicit_restart_after(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _twin_run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 500, restart_after=2.0)],
        )
        assert crashed.faults_injected == 1
        assert sorted(crashed.outputs) == sorted(twin.outputs)

    def test_multiple_crashes_on_distinct_machines(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        twin = _twin_run(query, order, checkpoint_interval=50, batching="per_tuple")
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            batching="per_tuple",
            fault_schedule=[crash_after_events(3, 400), crash_after_events(5, 800)],
        )
        assert crashed.faults_injected == 2
        assert sorted(crashed.outputs) == sorted(twin.outputs)


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------

class TestFaultErrorPaths:
    def test_overlapping_faults_rejected(self, queries):
        query = queries["equi"]
        order = _arrival_order(query)
        with pytest.raises(RuntimeError, match="overlapping faults"):
            _run(
                query,
                order,
                batching="per_tuple",
                checkpoint_interval=50,
                fault_schedule=[
                    crash_after_events(3, 500, restart_after=1e9),
                    crash_after_events(3, 501),
                ],
            )


# ---------------------------------------------------------------------------
# Property: a crash at an arbitrary point recovers to the twin's output
# ---------------------------------------------------------------------------

_TWIN_CACHE: dict[tuple, object] = {}


def _twin(queries, kind, plane):
    key = (kind, plane)
    if key not in _TWIN_CACHE:
        query = queries[kind]
        order = _arrival_order(query)
        overrides, _ = _plane_overrides(plane)
        _TWIN_CACHE[key] = (
            order,
            _twin_run(query, order, checkpoint_interval=50, **overrides),
        )
    return _TWIN_CACHE[key]


class TestArbitraryCrashPointProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        machine=st.integers(min_value=0, max_value=MACHINES - 1),
        fraction=st.floats(min_value=0.05, max_value=1.2),
        kind=st.sampled_from(["equi", "band", "composite"]),
        plane=st.sampled_from(sorted(PLANES)),
    )
    def test_crash_anywhere_recovers(self, queries, machine, fraction, kind, plane):
        query = queries[kind]
        order, twin = _twin(queries, kind, plane)
        overrides, _ = _plane_overrides(plane)
        after_events = max(1, int(twin.events_processed * fraction))
        crashed = _run(
            query,
            order,
            checkpoint_interval=50,
            fault_schedule=[crash_after_events(machine, after_events)],
            **overrides,
        )
        # Anchors past the end of the run are valid no-op cells.
        assert crashed.faults_injected in (0, 1)
        if crashed.faults_injected:
            assert crashed.recovery_time > 0.0
        assert sorted(crashed.outputs) == sorted(twin.outputs), f"{kind}/{plane}"
