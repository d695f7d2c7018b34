"""Fig. 7a — average operator throughput for every query and operator."""

import random
import time

import pytest
from conftest import run_report

from repro.api import JoinSession, RunConfig
from repro.bench.experiments import fig7a_throughput
from repro.bench.harness import ExperimentConfig, build_query, run_single
from repro.data.queries import JoinQuery
from repro.engine.columns import HAS_NUMPY
from repro.engine.stream import interleave_streams, make_tuples
from repro.joins.predicates import EquiPredicate


def test_fig7a_throughput(benchmark):
    report = run_report(benchmark, fig7a_throughput, scale=0.4, machines=16, seed=1)
    by_key = {(row["query"], row["operator"]): row["throughput"] for row in report.rows}
    for query in ("EQ5", "EQ7"):
        # Dynamic and StaticOpt are close; both clearly beat StaticMid and SHJ
        # (which suffers under the Z4 skew used for the equi-joins).
        assert by_key[(query, "Dynamic")] > by_key[(query, "StaticMid")]
        assert by_key[(query, "Dynamic")] > by_key[(query, "SHJ")]
        assert by_key[(query, "Dynamic")] >= 0.4 * by_key[(query, "StaticOpt")]
    assert by_key[("BNCI", "Dynamic")] > by_key[("BNCI", "StaticMid")]


def _fig7a_wall_clock(batching, probe_engine, repetitions=3):
    """Best-of-N wall-clock of the four fig7a operators on EQ5/Z4."""
    best = None
    for _ in range(repetitions):
        config = ExperimentConfig(
            machines=16, scale=0.4, skew="Z4", seed=1, batching=batching,
            operator_kwargs={"probe_engine": probe_engine},
        )
        query = build_query("EQ5", config)
        start = time.perf_counter()
        outs = {}
        for kind in ("SHJ", "StaticMid", "Dynamic", "StaticOpt"):
            outs[kind] = run_single(kind, query, config).output_count
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, outs


def test_fig7a_vectorized_probe_wall_clock():
    """The adaptive-plane fig7a workload with the vectorized probe engine
    runs >=1.5x faster wall-clock than the per-tuple plane with per-member
    scalar probes.

    The per-tuple scalar run is the in-tree stand-in for the unbatched,
    unvectorized baseline; the adaptive scalar run isolates the probe-engine
    contribution on top of receiver-side draining.

    Note this end-to-end gate would pass on draining alone; the
    probe-engine-specific >=1.5x gate is bench_probe_engine.py's equi
    micro-bench, which CI runs in the same step — simulator bookkeeping
    dominates the end-to-end wall, so the engine ratio is only robustly
    assertable where probe work dominates.
    """
    per_tuple_wall, per_tuple_outs = _fig7a_wall_clock("per_tuple", "scalar")
    adaptive_scalar_wall, adaptive_scalar_outs = _fig7a_wall_clock("adaptive", "scalar")
    adaptive_vector_wall, adaptive_vector_outs = _fig7a_wall_clock("adaptive", "vectorized")
    # Identical results on every plane/engine combination.
    assert per_tuple_outs == adaptive_scalar_outs == adaptive_vector_outs
    assert per_tuple_wall >= 1.5 * adaptive_vector_wall, (
        f"expected >=1.5x wall-clock win, got per-tuple {per_tuple_wall:.3f}s "
        f"vs adaptive+vectorized {adaptive_vector_wall:.3f}s"
    )
    # The vectorized engine must not substantially regress the adaptive plane
    # (generous margin: this runs as a CI gate on noisy shared runners).
    assert adaptive_vector_wall <= 1.3 * adaptive_scalar_wall, (
        f"vectorized probes slower than per-member probes: "
        f"{adaptive_vector_wall:.3f}s vs {adaptive_scalar_wall:.3f}s"
    )


def test_fig7a_adaptive_dataplane_wall_clock():
    """The adaptive plane runs the fig7a workload >=1.5x faster wall-clock
    than the per-tuple reference — at *reference semantics*: the results are
    bit-identical simulations (virtual times, migrations, latencies; pinned
    cell by cell in tests/test_adaptive_conformance.py).  The adaptive plane
    keeps the per-tuple wire (one heap event per send) and saves its wall by
    draining receiver backlogs in coalesced handler runs.

    The planes are measured interleaved (best-of-N each, after one untimed
    warm-up pass) so slow drift on shared runners biases neither of them.
    """
    _fig7a_wall_clock("per_tuple", "vectorized", repetitions=1)  # warm caches/imports
    _fig7a_wall_clock("adaptive", "vectorized", repetitions=1)
    per_tuple_wall = adaptive_wall = None
    for _ in range(5):
        wall, per_tuple_outs = _fig7a_wall_clock("per_tuple", "vectorized", repetitions=1)
        per_tuple_wall = wall if per_tuple_wall is None else min(per_tuple_wall, wall)
        wall, adaptive_outs = _fig7a_wall_clock("adaptive", "vectorized", repetitions=1)
        adaptive_wall = wall if adaptive_wall is None else min(adaptive_wall, wall)
    assert per_tuple_outs == adaptive_outs
    assert per_tuple_wall >= 1.5 * adaptive_wall, (
        f"expected >=1.5x wall-clock win at reference semantics, got per-tuple "
        f"{per_tuple_wall:.3f}s vs adaptive {adaptive_wall:.3f}s"
    )


SEED_DENSE = 5


def _dense_equi_wall(probe_engine, repetitions=3, tuples=3000, keys=12):
    """Best-of-N wall-clock of a match-dense equi join on the adaptive plane.

    The fig7a suite is output-sparse (wall-clock is dominated by routing,
    migration protocol and simulator bookkeeping), so it cannot separate
    probe *engines* — that is why the vectorized gate above measures plane
    vs plane.  This workload is the opposite regime: ``tuples`` x ``tuples``
    records over ``keys`` distinct keys means every probe walks a huge bucket
    and emits hundreds of matches, putting candidate handling and match
    emission — the axes the columnar engine vectorises — in charge of the
    wall.  StaticMid keeps the run migration-free so the measured ratio is
    the engine's, not the protocol's.
    """
    best = None
    result = None
    for _ in range(repetitions):
        # Rebuild records and arrival order per run (identical draws from the
        # fixed seeds) so no engine ever sees tuples another run touched.
        rng = random.Random(11)
        left = [{"k": rng.randrange(keys), "v": i} for i in range(tuples)]
        right = [{"k": rng.randrange(keys), "v": i} for i in range(tuples)]
        query = JoinQuery(
            name="DENSE_EQ",
            left_relation="R",
            right_relation="S",
            left_records=left,
            right_records=right,
            predicate=EquiPredicate("k", "k"),
            description="match-dense equi join (dense buckets, huge output)",
        )
        order_rng = random.Random(SEED_DENSE)
        order = interleave_streams(
            make_tuples("R", left, order_rng, query.left_tuple_size),
            make_tuples("S", right, order_rng, query.right_tuple_size),
            order_rng,
        )
        session = JoinSession(
            query,
            operator="StaticMid",
            config=RunConfig(
                machines=16, seed=SEED_DENSE, batching="adaptive",
                probe_engine=probe_engine,
            ),
        )
        start = time.perf_counter()
        result = session.run(arrival_order=order)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, result


@pytest.mark.skipif(not HAS_NUMPY, reason="the columnar engine requires NumPy")
def test_columnar_dense_equi_wall_clock():
    """The columnar engine runs the match-dense equi workload >=3x faster
    wall-clock than the vectorized engine, end to end on the adaptive plane —
    while remaining a bit-identical simulation (the full observable pin,
    event plumbing included, runs per cell in
    tests/test_adaptive_conformance.py; here the deterministic counters
    guard the measurement itself)."""
    _dense_equi_wall("columnar", repetitions=1)  # warm caches/imports
    vector_wall, vector_result = _dense_equi_wall("vectorized")
    columnar_wall, columnar_result = _dense_equi_wall("columnar")
    # Same simulation: deterministic counters must agree exactly.
    assert columnar_result.output_count == vector_result.output_count
    assert columnar_result.probe_work == vector_result.probe_work
    assert columnar_result.execution_time == vector_result.execution_time
    assert columnar_result.output_count > 500_000, (
        "workload lost its match density; the gate would be measuring noise"
    )
    assert vector_wall >= 3.0 * columnar_wall, (
        f"expected >=3x wall-clock win on the dense workload, got vectorized "
        f"{vector_wall:.3f}s vs columnar {columnar_wall:.3f}s"
    )


def test_fig7a_adaptive_reproduces_reference_figure():
    """fig7a on the adaptive plane is the *same figure* as the per-tuple
    reference — every reported number matches exactly, which is what finally
    lets the paper-figure drivers run batched."""
    reference = fig7a_throughput(scale=0.2, machines=8, seed=1)
    adaptive = fig7a_throughput(scale=0.2, machines=8, seed=1, batching="adaptive")
    assert adaptive.rows == reference.rows
