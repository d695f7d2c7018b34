"""Checks of the benchmark itself, on its reduced-size smoke mode."""

import gc
import json

import pytest

# The tracer and the columnar workload need NumPy.
pytest.importorskip("numpy")

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def smoke_results():
    return run.smoke(seed=1)


def test_smoke_runs_every_workload_correctly(smoke_results):
    assert set(smoke_results) == set(WORKLOADS)
    for name, result in smoke_results.items():
        assert result["correct"], name


def test_durability_layers_run_only_on_the_durable_stream(smoke_results):
    for name, result in smoke_results.items():
        metrics = result["metrics"]
        durable = name == "eq5-stream-durable"
        for key in (
            "storage.checkpoint.calls",
            "core.recovery.tuples_replayed",
            "engine.wire.sent",
            "api.push.self_s",
        ):
            assert (metrics[key] > 0) == durable, (name, key)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == list(run._units(trace_on=True).items())


def test_calibration_times_its_loop_and_restores_the_collector():
    assert gc.isenabled()
    assert run.calibrate() > 0
    assert gc.isenabled()
