"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs every workload through the real drivers at the ``--smoke`` size (seconds
in total) and checks names, oracles and trace resolution against
``BENCHMARK.json``.  There are deliberately **no wall-clock assertions**: what
a number is belongs to the benchmark's own runs, not to the verify path.
"""

from __future__ import annotations

import json

import pytest

from bench.compare import judge
from bench.harness import load_spec, run_workload
from bench.suite import summarize
from bench.trace import TARGETS
from bench.workloads import WORKLOADS

SPEC = load_spec()


def test_spec_declares_exactly_the_drivers():
    assert tuple(entry["name"] for entry in SPEC["workloads"]) == WORKLOADS
    assert SPEC["paths"] == ["bench"]
    gated = {entry["name"]: entry for entry in SPEC["end_to_end"]}
    assert gated["setup_s"]["unit"] == "s" and gated["setup_s"]["better"] == "lower"
    assert all(0 < entry["bound"] <= 0.25 for entry in gated.values())
    assert gated["setup_s"]["bound"] == max(entry["bound"] for entry in gated.values())
    names = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    from repro.storage import DataLakeStore

    query_before = DataLakeStore.query

    untraced = run_workload(workload, seed=5, seconds=1.0, traced=False, smoke=True, out_dir=tmp_path)
    result = untraced["result"]
    assert result["correct"] and result["failed"] == 0, untraced["detail"]["errors"]
    assert result["attempted"] >= 1
    declared = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    # A gated metric that reads 0 cannot regress by a share of itself.
    assert all(metric["value"] > 0 for metric in result["metrics"].values())

    traced = run_workload(workload, seed=5, seconds=1.0, traced=True, smoke=True, out_dir=tmp_path)
    assert traced["result"]["correct"], traced["detail"]["errors"]
    layers = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in traced["result"]["metrics"].items()} == layers
    detail = traced["detail"]
    assert detail["targets_resolved"] >= 0.9, detail["missing_layers"]
    assert detail["self_time"], "the traced run produced no spans"
    events = json.loads((tmp_path / f"trace-{workload}.json").read_text())["traceEvents"]
    assert events and {"name", "ph", "ts", "dur", "args"} <= events[0].keys()
    # The wrappers are gone and the run left nothing behind but its outputs.
    assert DataLakeStore.query is query_before
    assert not [path for path in tmp_path.iterdir() if path.is_dir()]


def test_trace_targets_name_public_callables_only():
    for _span, target in TARGETS:
        assert not any(part.startswith("_") for part in target.split(":")[1].split("."))


def test_compare_verdicts():
    def side(*values):
        return summarize(list(values), "s")

    steady = side(1.00, 1.01, 1.00, 0.99, 1.00)
    assert judge(steady, side(1.02, 1.01, 1.02, 1.03, 1.02), "lower", 0.10)[0] == "within bound"
    assert judge(steady, side(1.20, 1.21, 1.20, 1.19, 1.20), "lower", 0.10)[0] == "regressed"
    assert judge(steady, side(0.80, 0.81, 0.80, 0.79, 0.80), "lower", 0.10)[0] == "better"
    noisy = side(0.7, 1.3, 1.0, 0.8, 1.2)
    assert judge(steady, noisy, "lower", 0.10)[0] == "unresolved"
    assert judge(steady, side(0.80, 0.81, 0.80, 0.79, 0.80), "higher", 0.10)[0] == "regressed"
