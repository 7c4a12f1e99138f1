"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They show that the traced replay is a pure observer (bitwise-identical
answers with and without the layer wrappers), that per-layer self times
add up to the traced wall time, and that the command honours its output
contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, workloads  # noqa: E402
from perfbench.layers import TRACED_CALLS, Instrumentation, SpanRecorder, _resolve  # noqa: E402

PLANS = {
    "hybrid_burgers": [[(8, 0.25, 586626705), (8, 2.0, 535214420)]],
    "digital_trajectory": [[(8, 3, 5), (12, 2, 6)]],
    "service_closed_loop": [
        [
            [(4, 0.25, False, 11), (8, 1.0, False, 12), (4, 2.0, False, 13), (4, 1.0, True, 14)],
            [(8, 0.25, False, 15), (4, 0.25, True, 16)],
        ]
    ],
}


def _run(workload, instrumentation, plan, recorder=None, stop_at=None):
    objects = workloads.build(workload, 3)
    try:
        return workloads.run(
            workload, objects, instrumentation, plan, recorder=recorder, stop_at=stop_at
        )
    finally:
        workloads.release(objects)


def _untraced_and_traced(workload):
    plan = PLANS[workload]
    with Instrumentation(traced=False) as taps:
        untraced = _run(workload, taps, plan)
    recorder = SpanRecorder()
    with Instrumentation(traced=True, recorder=recorder) as spans:
        traced = _run(workload, spans, plan, recorder=recorder)
    return untraced, traced, taps, spans, recorder


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_replay_is_bitwise_identical(workload):
    untraced, traced, _taps, _spans, recorder = _untraced_and_traced(workload)
    assert untraced.attempted > 0
    assert untraced.wrong == 0 and traced.wrong == 0
    assert untraced.digests() == traced.digests()
    assert untraced.same_answers(traced)
    assert sum(recorder.calls.values()) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_root_time(workload):
    _untraced, traced, _taps, _spans, recorder = _untraced_and_traced(workload)
    total_self = sum(recorder.self_time.values())
    assert recorder.root_time > 0
    assert total_self == pytest.approx(recorder.root_time, rel=1e-9)
    assert all(value >= -1e-9 for value in recorder.self_time.values())
    if workload == "service_closed_loop":
        # Windows run back to back inside each burst, in an executor
        # thread: their traced time is the bursts' wall time less the
        # event loop's hand-offs.
        windows = recorder.inclusive["service.window"]
        assert windows <= traced.busy_s
        assert windows == pytest.approx(traced.busy_s, abs=0.01 * recorder.calls["service.window"])
        return
    # The harness's own clock around each measured item agrees with the
    # traced wall time of the item spans.
    items = sum(
        end - start for name, _, start, end, parent, item in recorder.spans
        if name == "bench.item" and not item.endswith("-base")
    )
    assert items == pytest.approx(traced.busy_s, rel=0.02, abs=2e-3)


def test_per_layer_metrics_cover_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    untraced, traced, taps, spans, recorder = _untraced_and_traced("hybrid_burgers")
    values = metrics.per_layer(traced, spans, recorder, untraced, taps)
    assert set(units) == set(values)
    assert all(values[name][1] == units[name] for name in units)
    assert values["analog.settles"][0] == 2
    assert values["ode.rhs_evals"][0] > 0
    assert values["linalg.matvecs"][0] > 0
    assert values["fleet.routes"][0] == 0


def test_service_layers_are_measured():
    untraced, traced, taps, spans, recorder = _untraced_and_traced("service_closed_loop")
    values = metrics.per_layer(traced, spans, recorder, untraced, taps)
    requests = sum(len(burst) for cycle in PLANS["service_closed_loop"] for burst in cycle)
    assert traced.attempted == requests and traced.failed == 0
    assert traced.extra["journal_checked"] == requests
    assert values["fleet.routes"][0] == requests
    # Digital-only requests are routed through the fleet too.
    assert values["fleet.routes_without_settle"][0] == 4
    assert values["certify.checked"][0] == requests
    assert values["checkpoint.records"][0] > requests
    assert values["checkpoint.bytes"][0] > 0 and values["checkpoint.verify_s"][0] > 0
    assert values["service.queue_wait_p50_s"][0] > 0 and values["service.queue_wait_tail_s"][0] > 0
    assert values["analog.settles"][0] == 2
    assert values["nonlinear.polish_iterations"][0] > 0
    # The settle tap runs untraced too, once per settle.
    assert len(taps.settles) == 2


def test_end_to_end_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in declared["end_to_end"]]
    result = workloads.RunResult(
        items=[workloads.Item(f"i{k}", 0.1 * (k + 1)) for k in range(30)],
        busy=[46.5],
    )
    values, _details = metrics.end_to_end(result, 0.5, 60.0)
    assert list(values) == names
    units = {entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
    assert all(values[name][1] == units[name] for name in names)
    assert all(value > 0 for value, _unit in values.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_made_from_the_seed(workload):
    def plan(seed, count):
        objects = workloads.build(workload, seed)
        try:
            return workloads.make_plan(workload, objects, count)
        finally:
            workloads.release(objects)

    assert plan(5, 3) == plan(5, 3)
    assert plan(5, 3) != plan(6, 3)
    # A traced run's shorter plan is the start of the full one.
    assert plan(5, 3)[:1] == plan(5, 1)


def test_tail_is_highest_percentile_with_ten_beyond():
    value, percentile, samples = metrics.tail([float(k) for k in range(1, 101)])
    assert (value, percentile, samples) == (90.0, 90.0, 100)
    value, percentile, samples = metrics.tail([1.0, 2.0, 3.0])
    assert (value, samples) == (1.0, 3)


def test_failed_requests_miss_every_latency_limit():
    items = [workloads.Item(f"i{k}", 0.1) for k in range(20)]
    for item in items[:11]:
        item.ok = False
    result = workloads.RunResult(items=items, busy=[2.0], lost_s=1.1)
    values, details = metrics.end_to_end(result, 0.5, 60.0)
    assert values["latency_p50_s"][0] > 1e6
    assert values["ok_ratio"][0] == pytest.approx(9 / 20)
    assert details["failed_ratio"] == pytest.approx(11 / 20)
    # throughput_per_s leaves out the seconds of failed requests; the
    # detail line keeps them.
    assert values["throughput_per_s"][0] == pytest.approx(9 / 0.9)
    assert details["throughput_all_per_s"] == pytest.approx(9 / 2.0)


def test_instrumentation_restores_every_attribute():
    before = {(module, path): _resolve(module, path) for module, path, _ in TRACED_CALLS}
    originals = {key: owner.__dict__[attr] for key, (owner, attr) in before.items()}
    with Instrumentation(traced=True):
        owner, attr = before[("repro.linalg.sparse", "CsrMatrix.matvec")]
        assert owner.__dict__[attr] is not originals[("repro.linalg.sparse", "CsrMatrix.matvec")]
    for key, (owner, attr) in before.items():
        assert owner.__dict__[attr] is originals[key]


def test_command_names_every_workload():
    from perfbench import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in declared["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == names


def test_command_prints_contract_json():
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "digital_trajectory",
            "--seed",
            "4",
            "--seconds",
            "0.5",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {entry["name"] for entry in declared["end_to_end"]}
    assert any(line.startswith("fingerprint ") for line in lines)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "hybrid_burgers",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_truncated_run_replays_only_what_it_reached():
    plan = PLANS["hybrid_burgers"]
    with Instrumentation(traced=False) as taps:
        cut = _run("hybrid_burgers", taps, plan, stop_at=time.perf_counter() + 0.05)
    assert cut.truncated and cut.attempted == 1
    assert cut.plan == [plan[0][:1]]
    with Instrumentation(traced=True) as spans:
        replay = _run("hybrid_burgers", spans, cut.plan)
    assert replay.attempted == 1 and cut.same_answers(replay)
