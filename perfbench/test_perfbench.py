"""Self-tests of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.tracing import validate_chrome_trace  # noqa: E402
from tracer import SpanRecorder, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(span_id, parent, start, end):
    return (1, span_id, parent, "s", start, end, None)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, None, 0, 100),
        # Two children overlapping on [20, 30]: coverage is their
        # union (10..40 = 30), not their sum (40).
        _span(2, 1, 10, 30),
        _span(3, 1, 20, 40),
        # A grandchild nested in child 2 counts against 2, not 1.
        _span(4, 2, 12, 18),
        # A child running past its parent's end is clipped to it.
        _span(5, 1, 90, 120),
    ]
    times = self_times(spans)
    assert times[1] == 100 - 30 - 10
    assert times[2] == 20 - 6
    assert times[3] == 20
    assert times[4] == 6
    assert times[5] == 30


def test_recorder_nests_wrapped_calls_and_restores_them():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Layer.outer
    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "outer", "a")
    recorder.wrap(Layer, "inner", "inner", "b", value=lambda args, r: r)
    layer = Layer()
    assert layer.outer() == 42
    assert recorder.spans == []           # nothing outside a trace
    recorder.begin(7)
    assert layer.outer() == 42
    recorder.end()
    (inner, outer) = recorder.spans
    assert (inner[0], inner[3], inner[6]) == (7, "inner", 41)
    assert inner[2] == outer[1] and outer[2] is None
    validate_chrome_trace(json.loads(json.dumps(
        {"traceEvents": list(recorder.chrome_events())})))
    recorder.uninstall()
    assert Layer.outer is original


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values[:99], 90) is None
    assert metrics.percentile(values[:20], 50) == 10
    assert metrics.percentile(values[:19], 50) is None
    assert metrics.percentile([], 50) is None


def _shape(workload, inputs):
    """What a seed must not change: the workload's structure."""
    if workload == "steady-1g":
        plan = inputs["plan"]
        return (len(plan), sum(len(t["files"]) for t in plan),
                sum(npages for t in plan for _, npages, _ in t["runs"]
                    if npages != workloads.RUN_PAGES))
    if workload == "cluster-6x3":
        return tuple(len(writes) for writes in inputs["plan"])
    if workload == "fleet-16":
        return (inputs["upfront"], len(inputs["late"]),
                len(inputs["departures"]))
    return (len(inputs["chain"]), len(inputs["working"]),
            [len(step["runs"]) for step in inputs["chain"]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_shape(workload):
    size = workloads.SIZES[workload]["full"]
    make = workloads.INPUTS[workload]
    first, again, other = make(1, size), make(1, size), make(2, size)
    assert first == again
    assert first != other
    assert _shape(workload, first) == _shape(workload, other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    plain = run.run(workload, 5, 0, trace=False, size="tiny")
    traced = run.run(workload, 5, 0, trace=True, size="tiny")
    for outcome in (plain, traced):
        assert outcome["result"]["correct"], outcome["result"]
        assert outcome["result"]["failed"] == 0
    assert set(plain["result"]["metrics"]) == set(metrics.END_TO_END)
    assert set(traced["result"]["metrics"]) == set(metrics.PER_LAYER)
    # Tracing sits outside the model: every simulated and model-counted
    # value is identical with and without it.
    shared = set(plain["report"]) & set(traced["report"]) \
        - metrics.HOST_CLOCK
    assert shared >= {"nvme.write_bytes", "fail_ratio"}
    for name in shared:
        assert plain["report"][name] == traced["report"][name], name
    simulated = {"steady-1g": {"sim_stop_us_p90", "sim_rpo_lag_us_p90",
                               "media_bytes_per_dirty_byte"},
                 "cluster-6x3": {"sim_stop_us_p90", "sim_rpo_lag_us_p90",
                                 "inter_az_bytes_per_ckpt"},
                 "fleet-16": {"sim_stop_us_p90", "sim_rpo_lag_us_p90"},
                 "crash-restore": {"sim_restore_us_p50"}}[workload]
    assert simulated <= set(plain["report"])
    doc = json.loads((run.OUT_DIR / f"trace-{workload}.json").read_text())
    validate_chrome_trace(doc)
    assert doc["traceEvents"]


def test_failed_output_check_fails_the_run(monkeypatch):
    monkeypatch.setattr(workloads.RestoreRound, "expected_page",
                        lambda self, page: b"not what was written")
    outcome = run.run("crash-restore", 5, 0, trace=False, size="tiny")
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] == workloads.SIZES["crash-restore"]["tiny"]["ops"]
    assert outcome["report"]["fail_ratio"]["value"] > 0.9


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == metrics.PER_LAYER
    predictions = json.loads((HERE / "predictions.json").read_text())
    known = set(metrics.END_TO_END) | set(metrics.PER_LAYER) | {"fail_ratio"}
    for layer in predictions["layers"]:
        assert set(layer["metrics"]) | set(layer["moves"]) <= known, layer
        assert set(layer["exercised_on"]) | set(layer["bypassed_on"]) \
            <= set(workloads.WORKLOADS)


def test_exits_nonzero_without_simulator_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-1g",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
