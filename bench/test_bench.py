"""Smoke tests of the benchmark: python3 -m pytest -q bench/test_bench.py

Each workload runs once at smoke length (--seconds 1, one unit of work),
untraced and traced, in a subprocess exactly as the benchmark is invoked.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """(workload, trace) -> parsed result line, run lazily once each."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[(workload, trace)] = last_json(run_bench(workload, trace))
        return cache[(workload, trace)]
    return get


def test_spec_matches_harness():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == workloads.LAYER_METRICS
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "samples_per_s", "step_ms_p50", "peak_rss_mb"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(results, workload):
    result = results(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(results, workload):
    result = results(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_train_desk_reports_each_layer(results):
    m = {k: v["value"] for k, v in results("train_desk", 1)["metrics"].items()}
    for group in ("encoders.encode_query", "encoders.encode_image",
                  "attention.query_attention", "attention.image_attention",
                  "fusion", "infomax"):
        assert m[f"{group}.calls_per_step"] > 0, group
        assert m[f"{group}.nodes_per_step"] > 0, group
        assert m[f"{group}.ms_per_step"] > 0, group
    for name in ("autodiff.graph_nodes_per_step", "autodiff.backward.ms_per_step",
                 "autodiff.backward.us_per_node", "autodiff.adam.ms_per_step",
                 "model.loss_batch.self_ms_per_step",
                 "training.loop.self_ms_per_step", "step_ms_p90", "train_ce",
                 "test_oa"):
        assert m[name] > 0, name
    assert 0 < m["encoders.encode_query.useful_frac"] < 1
    assert m["encoders.encode_image.useful_frac"] == 10 / 16


def test_traced_children_account_for_the_train_desk_step(results):
    results("train_desk", 1)
    spans = json.loads((BENCH_DIR / "out" / "train_desk-seed3-trace1-spans.json")
                       .read_text())["spans"]
    adam_ends = {}
    covered = {}
    for name, start, end, parent, step, _ in spans:
        if name in ("model.loss_batch", "autodiff.backward", "autodiff.adam"):
            covered[step] = covered.get(step, 0.0) + end - start
        if name == "autodiff.adam":
            adam_ends[step] = end
    ratios = [covered[k] / (adam_ends[k] - adam_ends[k - 1])
              for k in adam_ends if k - 1 in adam_ends]
    assert len(ratios) >= 100
    assert 0.9 < statistics.median(ratios) <= 1.0
    # self times of a step's whole subtree add up to the step's spans
    own = tracer_module.self_times(spans)
    inside = tracer_module.in_step(spans, workloads.TrainDesk.step_roots)
    step_of_interest = 5
    subtree = sum(t for s, t, flag in zip(spans, own, inside)
                  if flag and s[4] == step_of_interest)
    assert subtree == pytest.approx(covered[step_of_interest], rel=1e-9)


def test_speed_scaling_uses_the_probes_around_each_period():
    log = speed.SpeedLog()
    ref = speed.REF_PROBE_S
    # probe 0 before the unit, 1 inside it, 2 after it
    log.durations = [ref, 2 * ref, 3 * ref]
    unit = workloads.Unit(ok=True, seconds=10.0, periods=[1.0, 2.0, 3.0],
                          period_marks=[1, 1, 2])
    unit.apply_speed(log, 0)
    assert unit.scale == pytest.approx(0.5)
    assert unit.period_scales == pytest.approx([2 / 3, 2 / 3, 0.4])
    assert unit.scaled_seconds == pytest.approx(2 / 3 + 4 / 3 + 1.2 + 4 * 0.5)
    # a unit that did not probe inside takes its own scale for each period
    plain = workloads.Unit(ok=True, seconds=2.0, periods=[2.0])
    plain.apply_speed(log, 2)
    assert plain.period_scales == [plain.scale] == [pytest.approx(1 / 3)]
    assert plain.scaled_seconds == pytest.approx(2 / 3)


def test_tracer_restores_names_and_tolerates_missing_layers(monkeypatch):
    originals = {name: owner.__dict__.get(attr)
                 for name, (owner, attr, _) in tracer_module.WRAPPED.items()}
    originals["_node"] = tracer_module.autodiff._node
    monkeypatch.setitem(tracer_module.WRAPPED, "encoders.gone",
                        (tracer_module.model, "no_such_function", None))
    with tracer_module.Tracer() as t:
        assert tracer_module.autodiff._node is not originals["_node"]
    for name, (owner, attr, _) in tracer_module.WRAPPED.items():
        assert owner.__dict__.get(attr) is originals.get(name), name
    assert tracer_module.autodiff._node is originals["_node"]
    metrics = tracer_module.layer_metrics(t, {"bench.pass"}, 0)
    assert metrics["encoders.encode_query.calls_per_step"] == 0


def test_fails_without_the_library_sources():
    bare = BENCH_DIR / "out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("train_desk", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
