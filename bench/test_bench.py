"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repository root.

The end-to-end tests run every workload in smoke mode (reduced inputs,
one round, every output check on) in a fresh interpreter.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from reference import evaluate, tokens

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    doc = result(run("--workload", workload, "--seed", "3", "--smoke"))
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    deep = len(workloads.DEEP_OPS) if workload == "term-mix" else 0
    assert 0 <= doc["failed"] <= deep
    names = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    doc = result(run("--workload", "gil-split", "--seed", "3", "--smoke", "--trace", "1"))
    assert doc["correct"] is True
    names = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == names
    assert doc["metrics"]["decide.gil_unique_ratio"]["value"] < 1


def test_inputs_depend_only_on_workload_and_seed():
    first = run("--workload", "term-mix", "--seed", "7", "--print-inputs").stdout
    again = run("--workload", "term-mix", "--seed", "7", "--print-inputs").stdout
    other = run("--workload", "term-mix", "--seed", "8", "--print-inputs").stdout
    assert first == again != other
    assert json.loads(first)["deep"] == workloads.DEEP_OPS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_shape_does_not_depend_on_the_seed(workload):
    def shape(seed):
        inputs = workloads.build(workload, seed)
        return {k: len(v) for k, v in inputs.items() if isinstance(v, list)}
    assert shape(1) == shape(2) == shape(99)


def test_round_runs_each_light_op_repeat_times_and_each_heavy_op_once():
    from ops import Op, interleave
    light = [Op("eval", "eval_total", None, None), Op("eval", "eval_total", None, None)]
    heavy = Op("iamd_true", "iamd", None, None, heavy=True)
    round_ = interleave(light + [heavy], 3)
    assert [sum(x is op for x in round_) for op in light + [heavy]] == [3, 3, 1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_equations_are_true_or_false_as_labelled(workload):
    inputs = workloads.build(workload, 5, smoke=True)
    for item in inputs["iamd"] + inputs["gil"] + inputs["gil_small"] + inputs["closed"]:
        names = sorted({t for t in tokens(item["_l"]) + tokens(item["_r"])
                        if isinstance(t, str) and t[0].isalpha()})
        points = [{v: Fraction(1) for v in names}, {v: Fraction(i + 2) for i, v in enumerate(names)}]
        if item["theory"] in ("ratiaz-gil", "ratdaz-gil", "closed:iamdz"):
            points += [{v: Fraction(0 if v == z else 1) for v in names} for z in names]
        agree = all(evaluate(item["_l"], p) == evaluate(item["_r"], p) for p in points)
        assert agree == item["expect"], (item["lhs"], item["rhs"])


def test_reference_evaluator_is_zero_totalized_and_iterative():
    assert evaluate(("^", "0"), {}) == 0
    assert evaluate(("/", "1", "0"), {}) == 0
    assert evaluate(("^", "0"), {}, "inv0") is None
    assert evaluate(("/", "0", "0"), {}, "divnz0") == 0
    assert evaluate(("/", "1", "0"), {}, "divnz0") is None
    assert evaluate(("+", "1", ("/", "0", "0")), {}, "divall0") is None
    assert evaluate(("*", "x", ("^", "x")), {"x": Fraction(0)}) == 0
    deep = "1"
    for _ in range(20_000):
        deep = ("+", deep, "1")
    assert evaluate(deep, {}) == 20_001


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run("--workload", "poly-expand", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_model_table_lists_exactly_the_supported_pairs():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from meadows import Carrier, SignatureMismatch, TheoryId, check_model
    finally:
        sys.path.remove(str(ROOT / "src"))
    supported = set()
    for th in TheoryId:
        for carrier in Carrier:
            try:
                check_model(th, carrier, samples=1)
            except SignatureMismatch:
                continue
            supported.add((th.value, carrier.value))
    assert supported == set(workloads.MODEL_TABLE)
