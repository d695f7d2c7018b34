"""Benchmark of the adaptive online theta-join reproduction.

One invocation measures one workload through the public API (``JoinSession``
``run``, ``push`` and ``finish``) in this single process, with no threads,
and prints its metrics.  Run from the root of a checkout::

    python3 perfbench/run.py --workload eq5-adaptive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics: set-up time, throughput,
operation latency and peak RSS, next to the paper's exact virtual-time
metrics.  The wall times are scaled to a reference host speed (see
``calibrate``), since a shared host's speed can drift by tens of percent
over minutes; the raw wall medians are printed above the result line.
Throughput is input tuples over the time spent in operations: ``run()``, or
the pushes of the streaming workload.  Its ``finish()`` is left out: that is
mostly the checkpoint store's close (a WAL checkpoint, fsync and unlink),
whose wall time follows the disk's latency, 0.35-1.6 s from one run to the
next on a 2-vCPU VM; the trace reports it as ``api.finish.self_s``.
``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics (see ``layers.py``).  ``--smoke`` runs every workload once at
reduced size, traced and untraced, with the output check.

Each invocation derives ``INSTANCES`` inputs from its seed.  After one
untimed warm-up run it cycles through them, timing each run, until
``--seconds`` have passed; inputs the timed loop did not reach then run once
untimed, so the virtual metrics always summarise the same inputs.  Every
run's output count is checked against the nested-loop reference, and every
run of one input must repeat its deterministic counters exactly, traced or
not.  One extra untimed run collects its output pairs and compares them as a
multiset with the reference.  A failed check or an exception counts as a
failed operation (a ``run()``, or a ``push`` on the streaming workload) and
makes the command exit with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
TEMP_DIR = Path(__file__).resolve().parent / "tmp"

if __name__ == "__main__" and not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from layers import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    INSTANCES,
    WORKLOADS,
    Workload,
    exact_counters,
    instance_seed,
    output_pairs,
    reference_pairs,
    run_sample,
)


def _wire(key):
    return lambda totals, result, inputs: (result.wire_counters or {}).get(key, 0)


def _calls(layer):
    return lambda totals, result, inputs: totals[layer][0]


def _self_s(layer):
    return lambda totals, result, inputs: totals[layer][1]


def _goodput(totals, result, inputs):
    counters = result.wire_counters or {}
    return counters["applied"] / counters["sent"] if counters.get("sent") else 0.0


def _match_ratio(totals, result, inputs):
    return result.output_count / result.probe_work if result.probe_work else 0.0


#: Per-layer metrics of one traced run: (name, unit, value from the layer
#: totals, the run's RunResult and its input tuple count).
PER_LAYER = (
    ("data.generate_s", "s", _self_s("data.generate")),
    ("data.query_s", "s", _self_s("data.query")),
    ("api.build_s", "s", _self_s("api.build")),
    ("api.run.self_s", "s", _self_s("api.run")),
    ("api.push.self_s", "s", _self_s("api.push")),
    ("api.finish.self_s", "s", _self_s("api.finish")),
    ("core.reshuffler.calls", "count", _calls("core.reshuffler")),
    ("core.reshuffler.self_s", "s", _self_s("core.reshuffler")),
    ("core.joiner.calls", "count", _calls("core.joiner")),
    ("core.joiner.self_s", "s", _self_s("core.joiner")),
    ("core.epochs.calls", "count", _calls("core.epochs")),
    ("core.epochs.self_s", "s", _self_s("core.epochs")),
    ("core.decision.self_s", "s", _self_s("core.decision")),
    ("core.migration.self_s", "s", _self_s("core.migration")),
    ("core.recovery.self_s", "s", _self_s("core.recovery")),
    ("core.recovery.tuples_replayed", "count", lambda t, r, n: r.tuples_replayed),
    ("core.recovery.replay_ratio", "ratio", lambda t, r, n: r.tuples_replayed / n),
    ("engine.simulator.self_s", "s", _self_s("engine.simulator")),
    ("engine.simulator.post.calls", "count", _calls("engine.simulator.post")),
    ("engine.simulator.post.self_s", "s", _self_s("engine.simulator.post")),
    ("engine.simulator.heap_events", "count", lambda t, r, n: r.heap_events),
    ("engine.simulator.events_processed", "count", lambda t, r, n: r.events_processed),
    ("engine.batching.tuples_per_event", "ratio", lambda t, r, n: n / r.events_processed),
    ("engine.network.calls", "count", _calls("engine.network")),
    ("engine.network.self_s", "s", _self_s("engine.network")),
    ("engine.wire.self_s", "s", _self_s("engine.wire")),
    ("engine.wire.sent", "count", _wire("sent")),
    ("engine.wire.retransmitted", "count", _wire("retransmitted")),
    ("engine.wire.deduped", "count", _wire("deduped")),
    ("engine.wire.goodput", "ratio", _goodput),
    ("engine.metrics.calls", "count", _calls("engine.metrics")),
    ("engine.metrics.self_s", "s", _self_s("engine.metrics")),
    ("joins.local.calls", "count", _calls("joins.local")),
    ("joins.local.self_s", "s", _self_s("joins.local")),
    ("joins.probe_batch.calls", "count", _calls("joins.probe_batch")),
    ("joins.probe_batch.self_s", "s", _self_s("joins.probe_batch")),
    ("joins.probe_work", "count", lambda t, r, n: r.probe_work),
    ("joins.match_ratio", "ratio", _match_ratio),
    ("storage.checkpoint.calls", "count", _calls("storage.checkpoint")),
    ("storage.checkpoint.self_s", "s", _self_s("storage.checkpoint")),
    ("storage.checkpoint.bytes", "bytes", lambda t, r, n: r.checkpoint_overhead),
)

#: Metrics the traced/untraced pairing itself yields.
TRACE_METRICS = (("trace.overhead", "ratio"), ("trace.spans", "count"))

END_TO_END = (
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("virtual_time", "vt"),
    ("virtual_latency", "vt"),
    ("max_ilf", "tuples"),
    ("network_volume", "size_units"),
)

#: End-to-end metrics read from each input's exact counters (median over inputs).
VIRTUAL = {
    "virtual_time": "execution_time",
    "virtual_latency": "average_latency",
    "max_ilf": "max_ilf",
    "network_volume": "total_network_volume",
}


class Checker:
    """Collects every run's outcome and checks it once measuring is over.

    Checking afterwards keeps the nested-loop references out of the timed
    loop and out of the peak RSS the timed runs reach.
    """

    def __init__(self, workload: Workload, size: float) -> None:
        self.workload = workload
        self.size = size
        self.runs: list[tuple[int, int, dict]] = []
        self.attempted = 0
        self.failed = 0
        self.pairs_checked = False

    @property
    def ok(self) -> bool:
        """No operation failed and the output pairs were checked."""
        return self.failed == 0 and self.pairs_checked

    def sample(self, seed: int, collect_outputs: bool = False, tracer: Tracer | None = None):
        """Run one sample and record it; return it, or ``None`` if it raised."""
        try:
            if tracer is None:
                sample = run_sample(self.workload, seed, self.size, collect_outputs)
            else:
                with tracer:
                    sample = run_sample(self.workload, seed, self.size, collect_outputs)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += len(sample.op_s)
        self.runs.append((seed, len(sample.op_s), exact_counters(sample.result)))
        return sample

    def check_pairs(self, seed: int) -> None:
        """Run ``seed`` once collecting outputs and compare the pair multisets."""
        sample = self.sample(seed, collect_outputs=True)
        if sample is None:
            return
        expected = output_pairs(sample.instance, sample.result) == Counter(
            reference_pairs(sample.instance.query)
        )
        self.pairs_checked = True
        if not expected:
            print(f"{self.workload.name}: output pairs differ from the reference", file=sys.stderr)
            self.failed += len(sample.op_s)

    def verify(self) -> None:
        """Check every run's output count and counter repeatability."""
        references = {}
        first: dict[int, dict] = {}
        for seed, ops, counters in self.runs:
            if seed not in references:
                query = self.workload.query(seed, self.size)
                references[seed] = len(reference_pairs(query))
            first.setdefault(seed, counters)
            if counters["output_count"] != references[seed]:
                print(
                    f"{self.workload.name} seed {seed}: {counters['output_count']} outputs, "
                    f"reference has {references[seed]}",
                    file=sys.stderr,
                )
                self.failed += ops
            elif counters != first[seed]:
                print(
                    f"{self.workload.name} seed {seed}: deterministic counters changed "
                    f"between runs: {first[seed]} != {counters}",
                    file=sys.stderr,
                )
                self.failed += ops

    def counters(self, seed: int) -> dict:
        return next(counters for s, _, counters in self.runs if s == seed)


def _tail(values: list[float]) -> float:
    """The 99th percentile (nearest rank) of at least 1,000 values, else the
    median.

    The streaming workload times about 1,000 pushes per run, enough for a
    p99 with ten values beyond it; the materialised workloads' few dozen
    runs support no tail above the median.  Tying the choice to the value
    count, not to a rank that moves with it, keeps the percentile fixed per
    workload however fast the machine runs.
    """
    if len(values) < 1000:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


#: Wall seconds one ``calibrate`` loop takes on the reference host (a 2-vCPU
#: VM at rest).  Timed wall figures are reported as if measured there.
CALIBRATION_REFERENCE_S = 0.060


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's current speed.

    The loop mixes what the operator's runs spend their time on (random
    lookups in a large dict, tuple allocation, a heap of events, counter
    updates), so a host that runs the program slower right now runs it slower
    too.  It uses only the standard library and none of the program, so a
    change to the program cannot move it; it is built and freed before each
    timed sample, so it adds nothing to the peak RSS.  The collector is off
    while it runs (its objects form no cycles), so the program's live heap,
    which a collection would traverse, does not move it either.
    """
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        gc.enable()


def _calibration_loop() -> float:
    start = time.perf_counter()
    rng = random.Random(0)
    table = {i: [i] for i in range(150_000)}
    heap: list = []
    counts: dict = {}
    total = 0
    for step in range(40_000):
        key = rng.randrange(150_000)
        total += table[key][0]
        heapq.heappush(heap, (key, step, (key, step)))
        counts[key & 4095] = counts.get(key & 4095, 0) + 1
        if len(heap) > 2000:
            heapq.heappop(heap)
    del table, heap, counts
    return time.perf_counter() - start


def _seeds(seed: int) -> list[int]:
    return [instance_seed(seed, index) for index in range(INSTANCES)]


def measure(workload: Workload, seed: int, seconds: float) -> tuple[Checker, dict, dict]:
    """Timed untraced runs: the end-to-end metrics of one workload."""
    checker = Checker(workload, workload.full_size)
    seeds = _seeds(seed)
    calibrate()
    checker.sample(seeds[0])  # warm-up, untimed
    # Each timed sample follows a calibration loop; its wall times are scaled
    # by reference / calibration, so they read as if taken on the reference host.
    setups, throughputs, ops = [], [], []
    raw_setups, raw_ops, raw_runs, calibrations = [], [], [], []
    begin = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - begin < seconds:
        calibration_s = calibrate()
        sample = checker.sample(seeds[index % len(seeds)])
        index += 1
        if sample is not None:
            scale = CALIBRATION_REFERENCE_S / calibration_s
            setups.append(scale * sample.setup_s)
            throughputs.append(sample.inputs / (scale * sum(sample.op_s)))
            ops.extend(scale * op for op in sample.op_s)
            raw_setups.append(sample.setup_s)
            raw_ops.extend(sample.op_s)
            raw_runs.append(sample.run_s)
            calibrations.append(calibration_s)
        sample = None  # free the run before the next calibration
    for seed_left in seeds[index:]:
        checker.sample(seed_left)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checker.check_pairs(seeds[0])
    checker.verify()
    metrics = {}
    if checker.ok:
        metrics = {
            "setup_s": statistics.median(setups),
            "tuples_per_s": statistics.median(throughputs),
            "op_p50_ms": 1e3 * statistics.median(ops),
            "op_tail_ms": 1e3 * _tail(ops),
            "peak_rss_mb": peak_rss_mb,
        }
        for name, field in VIRTUAL.items():
            metrics[name] = statistics.median(checker.counters(s)[field] for s in seeds)
    counts = {"timed_runs": len(throughputs), "timed_operations": len(ops)}
    if calibrations:
        counts["calibration_ms"] = round(1e3 * statistics.median(calibrations), 3)
        counts["raw_setup_ms"] = round(1e3 * statistics.median(raw_setups), 3)
        counts["raw_op_p50_ms"] = round(1e3 * statistics.median(raw_ops), 3)
        counts["raw_run_ms"] = round(1e3 * statistics.median(raw_runs), 3)
    return checker, metrics, counts


def trace(workload: Workload, seed: int, seconds: float, size: float | None = None):
    """Alternating untraced and traced runs: the per-layer metrics."""
    size = workload.full_size if size is None else size
    checker = Checker(workload, size)
    seeds = _seeds(seed)
    checker.sample(seeds[0])  # warm-up, untimed
    tracer = Tracer()
    per_run: dict[str, list[float]] = {name: [] for name, _, _ in PER_LAYER}
    per_run.update({name: [] for name, _ in TRACE_METRICS})
    begin = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - begin < seconds:
        current = seeds[index % len(seeds)]
        index += 1
        plain = checker.sample(current)
        tracer.clear()
        traced = checker.sample(current, tracer=tracer)
        if plain is None or traced is None:
            continue
        totals = tracer.layer_totals()
        for name, _, value in PER_LAYER:
            per_run[name].append(float(value(totals, traced.result, traced.inputs)))
        per_run["trace.overhead"].append(traced.run_s / plain.run_s)
        per_run["trace.spans"].append(float(len(tracer.layers)))
    tracer.write(TRACE_DIR / f"{workload.name}.npz")
    checker.check_pairs(seeds[0])
    checker.verify()
    metrics = {}
    if checker.ok:
        metrics = {name: statistics.median(values) for name, values in per_run.items()}
    counts = {"traced_runs": len(per_run["trace.spans"])}
    return checker, metrics, counts


def _units(trace_on: bool) -> dict[str, str]:
    if trace_on:
        units = {name: unit for name, unit, _ in PER_LAYER}
        units.update(dict(TRACE_METRICS))
        return units
    return dict(END_TO_END)


def report(checker: Checker, metrics: dict, counts: dict, trace_on: bool) -> dict:
    """Print a readable table, then the result object as the last line."""
    units = _units(trace_on)
    print(f"workload {checker.workload.name}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>18.6f} {units[name]}")
    result = {
        "correct": checker.ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return result


@contextlib.contextmanager
def _checkout_tempdir():
    """Keep the checkpoint store's temporary files inside the checkout."""
    TEMP_DIR.mkdir(exist_ok=True)
    previous, tempfile.tempdir = tempfile.tempdir, str(TEMP_DIR)
    try:
        yield
    finally:
        tempfile.tempdir = previous


def smoke(seed: int = 1) -> dict[str, dict]:
    """Every workload once at reduced size, traced and untraced, with the
    output check; returns the per-layer metrics of each workload."""
    results = {}
    with _checkout_tempdir():
        for workload in WORKLOADS.values():
            checker, metrics, _ = trace(workload, seed, seconds=0.0, size=workload.smoke_size)
            status = "ok" if checker.ok else "FAILED"
            print(f"{workload.name}: {status} ({checker.attempted} operations)")
            results[workload.name] = {"correct": checker.ok, "metrics": metrics}
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick reduced-size check")
    args = parser.parse_args(argv)
    if args.smoke:
        results = smoke(args.seed)
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    run = trace if args.trace else measure
    with _checkout_tempdir():
        checker, metrics, counts = run(WORKLOADS[args.workload], args.seed, args.seconds)
    result = report(checker, metrics, counts, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
