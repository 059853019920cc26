"""Generators are seed-deterministic; every workload emits what BENCHMARK.json declares."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.titant_bench import compare
from benchmarks.titant_bench.inputs import WORKLOADS, digest, generate
from benchmarks.titant_bench.runner import run_workload

CONTRACT = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_byte_identical_per_seed_and_differ_across_seeds(workload):
    first = digest(generate(workload, 19, smoke=True))
    assert digest(generate(workload, 19, smoke=True)) == first
    assert digest(generate(workload, 23, smoke=True)) != first


def test_contract_declares_exactly_the_harness_workloads():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/titant_bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_the_declared_metrics(workload, trace, tmp_path):
    result = run_workload(workload, seed=19, seconds=0.05, trace=trace, smoke=True, out_dir=tmp_path)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result.metrics) == {entry["name"] for entry in declared}
    for entry in declared:
        assert result.metrics[entry["name"]]["unit"] == entry["unit"]
        assert isinstance(result.metrics[entry["name"]]["value"], float)
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert set(result.contract_json()) == {"correct", "attempted", "failed", "metrics"}
    if trace:
        shares = [v["value"] for k, v in result.metrics.items() if k.endswith("_share")]
        assert sum(shares) == pytest.approx(1.0)
        assert (tmp_path / f"trace_{workload}.json").exists()
        streaming = result.metrics["streaming.observe_share"]["value"]
        assert (streaming > 0) == (workload == "serve_scalar_full")
    else:
        assert all(entry["value"] > 0 for entry in result.metrics.values())


def _results(throughput, spread=0.01):
    metrics = {
        entry["name"]: {"value": 1.0, "unit": entry["unit"]} for entry in CONTRACT["end_to_end"]
    }
    metrics["throughput_per_s"]["value"] = throughput
    metrics["e2e.round_spread"] = {"value": spread, "unit": "ratio"}
    run = {"metrics": metrics, "correct": True, "failed": 0, "attempted": 10, "checksum": "x"}
    return {"seed": 19, "workloads": {name: dict(run) for name in WORKLOADS}}


def test_compare_applies_direction_bound_and_spread():
    _, disagreements, unresolved = compare.compare(_results(100.0), _results(98.0), CONTRACT)
    assert (disagreements, unresolved) == (0, 0)
    rows, disagreements, _ = compare.compare(_results(100.0), _results(50.0), CONTRACT)
    assert disagreements == len(WORKLOADS) and any("B worse" in row for row in rows)
    _, disagreements, unresolved = compare.compare(
        _results(100.0), _results(50.0, spread=0.9), CONTRACT
    )
    assert disagreements == 0 and unresolved > 0
