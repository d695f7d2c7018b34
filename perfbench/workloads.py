"""The benchmark's four workloads and the code that runs one sample of each.

Every input comes from the workload seed: the TPC-H-like dataset, the dense
records, the salts and arrival order (built here with ``make_tuples`` and
``interleave_streams``), the operator's routing seed and the lossy-wire drop
schedule.  The program receives only the built ``arrival_order=`` or
``push(items=...)`` chunks.

Workloads set only ``machines``, ``seed``, ``batching``, ``probe_engine``,
``checkpoint_interval``, ``fault_schedule``, ``network_faults`` and the
operator kind.  Every other ``RunConfig`` knob keeps its default, so a change
that deletes such a knob needs no edit here.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.api import JoinSession, RunConfig
from repro.core.results import RunResult
from repro.data import queries, tpch
from repro.data.queries import JoinQuery
from repro.engine.faults import crash, drop
from repro.engine.stream import StreamTuple, interleave_streams, make_tuples
from repro.joins.predicates import EquiPredicate, cross_join_reference

MACHINES = 16

#: Seeded inputs per invocation.  The virtual metrics vary with the input
#: (migration timing depends on the arrival order): over twenty seeds, the
#: average latency of one input spreads by ~8% (quartile distance over
#: median).  An invocation reports the median over this many inputs, which
#: halves that spread; a mean would move with the rare input whose
#: migration lands differently (one in ~30 on bci-fixed, +57% network volume).
INSTANCES = 8

#: Tuples per ``push`` on the streaming workload (about 1,000 pushes at
#: full scale).
PUSH_CHUNK = 24

#: Dense equi workload shape: ``DENSE_TUPLES`` records per side over
#: ``DENSE_KEYS`` keys, so every probe meets a bucket of ~250 matches.
DENSE_TUPLES = 3000
DENSE_KEYS = 12

#: Lossy-wire schedule: each of the first ``DROP_HORIZON`` frames of every
#: directed link is dropped with probability ``DROP_RATE``.
DROP_RATE = 0.01
DROP_HORIZON = 400


@dataclass
class Instance:
    """One seeded input, set up and ready to run."""

    session: JoinSession
    query: JoinQuery
    left: list[StreamTuple]
    right: list[StreamTuple]
    order: list[StreamTuple]


@dataclass
class Sample:
    """What one run of an instance measured."""

    setup_s: float
    run_s: float
    op_s: list[float]
    inputs: int
    result: RunResult
    instance: Instance


@dataclass(frozen=True)
class Workload:
    """A named workload: its seeded query, its run configuration and sizes.

    ``size`` is the TPC-H scale, or the records per side of the dense join;
    the smoke size is a reduced input for quick checks.
    """

    name: str
    operator: str
    streaming: bool
    full_size: float
    smoke_size: float
    query: Callable[[int, float], JoinQuery]
    config: Callable[[int], RunConfig]


def instance_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of an invocation run with ``seed``."""
    return seed * 1000 + index


def _tpch_query(name: str, skew: str) -> Callable[[int, float], JoinQuery]:
    def build(seed: int, scale: float) -> JoinQuery:
        dataset = tpch.generate_dataset(scale=scale, skew=skew, seed=seed)
        return queries.make_query(name, dataset)

    return build


def _dense_query(seed: int, tuples: float) -> JoinQuery:
    rng = random.Random(f"dense:{seed}")
    left = [{"k": rng.randrange(DENSE_KEYS), "v": i} for i in range(int(tuples))]
    right = [{"k": rng.randrange(DENSE_KEYS), "v": i} for i in range(int(tuples))]
    return JoinQuery(
        name="DENSE_EQ",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=EquiPredicate("k", "k"),
    )


def drop_schedule(seed: int) -> tuple:
    """Seeded ~1% Bernoulli drops over the first frames of every directed link."""
    rng = random.Random(f"drops:{seed}")
    return tuple(
        drop((sender, receiver), nth)
        for sender in range(MACHINES)
        for receiver in range(MACHINES)
        if sender != receiver
        for nth in range(1, DROP_HORIZON + 1)
        if rng.random() < DROP_RATE
    )


def _durable_config(seed: int) -> RunConfig:
    return RunConfig(
        machines=MACHINES,
        seed=seed,
        batching="adaptive",
        checkpoint_interval=200,
        fault_schedule=(crash(3, 300.0),),
        network_faults=drop_schedule(seed),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eq5-adaptive", "Dynamic", False, 4.0, 0.4, _tpch_query("EQ5", "Z4"),
            lambda seed: RunConfig(machines=MACHINES, seed=seed, batching="adaptive"),
        ),
        Workload(
            "bci-fixed", "Dynamic", False, 4.0, 0.4, _tpch_query("BCI", "Z0"),
            lambda seed: RunConfig(machines=MACHINES, seed=seed),
        ),
        Workload(
            "dense-equi-columnar", "StaticMid", False, DENSE_TUPLES, 600, _dense_query,
            lambda seed: RunConfig(
                machines=MACHINES, seed=seed, batching="adaptive", probe_engine="columnar"
            ),
        ),
        Workload(
            "eq5-stream-durable", "Dynamic", True, 4.0, 0.4, _tpch_query("EQ5", "Z4"),
            _durable_config,
        ),
    )
}


def setup(workload: Workload, seed: int, size: float, collect_outputs: bool = False) -> Instance:
    """Build one seeded input and a session ready to run it."""
    query = workload.query(seed, size)
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(query.right_relation, query.right_records, rng, query.right_tuple_size)
    order = interleave_streams(left, right, rng)
    session = JoinSession(query, operator=workload.operator, config=workload.config(seed))
    if workload.streaming:
        session.open_stream(collect_outputs=collect_outputs)
    return Instance(session, query, left, right, order)


def run_sample(workload: Workload, seed: int, size: float, collect_outputs: bool = False) -> Sample:
    """Set up one seeded input and run it once through the public API.

    Set-up covers input generation, the arrival order, the session and, on
    the streaming workload, ``open_stream``.  The run is ``run()``, or every
    ``push`` plus ``finish()``; pushes form a closed loop, each chunk sent
    when the previous push returned.
    """
    start = time.perf_counter()
    instance = setup(workload, seed, size, collect_outputs)
    setup_s = time.perf_counter() - start
    # Collect set-up garbage outside the timed run, so every run starts alike.
    gc.collect()
    op_s = []
    if workload.streaming:
        order = instance.order
        session = instance.session
        run_start = time.perf_counter()
        for index in range(0, len(order), PUSH_CHUNK):
            chunk = order[index : index + PUSH_CHUNK]
            push_start = time.perf_counter()
            session.push(items=chunk)
            op_s.append(time.perf_counter() - push_start)
        result = session.finish()
        run_s = time.perf_counter() - run_start
    else:
        run_start = time.perf_counter()
        result = instance.session.run(
            arrival_order=instance.order, collect_outputs=collect_outputs
        )
        run_s = time.perf_counter() - run_start
        op_s.append(run_s)
    return Sample(setup_s, run_s, op_s, len(instance.order), result, instance)


def exact_counters(result) -> dict:
    """The deterministic quantities every run of one input must repeat exactly.

    ``checkpoint_overhead`` is left out: the checkpoint pickles carry
    process-global tuple ids, so its byte count grows with every earlier run
    in the same interpreter.
    """
    return {
        "output_count": result.output_count,
        "execution_time": result.execution_time,
        "average_latency": result.average_latency,
        "max_ilf": result.max_ilf,
        "total_network_volume": result.total_network_volume,
        "migrations": result.migrations,
        "events_processed": result.events_processed,
        "heap_events": result.heap_events,
        "probe_work": result.probe_work,
        "faults_injected": result.faults_injected,
        "tuples_replayed": result.tuples_replayed,
        "wire_counters": dict(result.wire_counters or {}),
    }


def reference_pairs(query: JoinQuery) -> list[tuple[int, int]]:
    """The exact join result as (left record index, right record index) pairs."""
    return cross_join_reference(query.left_records, query.right_records, query.predicate)


def output_pairs(instance: Instance, result) -> Counter:
    """The run's output as a multiset of (left record index, right record index)."""
    left_index = {item.tuple_id: i for i, item in enumerate(instance.left)}
    right_index = {item.tuple_id: i for i, item in enumerate(instance.right)}
    return Counter((left_index[l], right_index[r]) for l, r in result.outputs)
