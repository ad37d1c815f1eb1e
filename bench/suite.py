"""The whole suite: every workload x repeats, one traced pass, a run record.

Each run is a fresh subprocess of ``python -m bench run --workload ...`` (the
same command the contract in ``BENCHMARK.json`` names), so no run inherits
another's heap, caches or page-faulted memory.  End-to-end metrics come from
the untraced repeats; one extra traced run per workload gives the layer
numbers, the Chrome-trace file and the self-time table.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from bench.harness import DEFAULT_OUT_DIR, PINNED_ENV, ROOT, calibrate, environment, load_spec
from bench.workloads import WORKLOADS

#: Total-time cap the default command must fit on a 2-core box (seconds).
TIME_CAP_SECONDS = 3420
#: What one run costs beyond its measured ``--seconds``: interpreter start,
#: three set-ups, verification (generous; measured 3-10 s on the reference).
RUN_OVERHEAD_SECONDS = 12.0
MIN_REPEATS = 3


def summarize(values: list[float], unit: str) -> dict[str, Any]:
    """Median, quartiles and quartile spread (Q3-Q1 over the median) of runs."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else [median] * 3
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
        "values": values,
    }


def print_run(workload: str, outcome: dict[str, Any]) -> None:
    """Every metric of one run by name, with its unit and sample count."""
    result, detail = outcome["result"], outcome["detail"]
    counts = detail.get("sample_counts", {})
    print(
        f"== {workload}: seed {detail['seed']}, {detail['rounds_done']}/"
        f"{detail['rounds_planned']} rounds, attempted {result['attempted']}, "
        f"failed {result['failed']}, correct {result['correct']}"
    )
    for name, metric in result["metrics"].items():
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"   {name:<44} {metric['value']:>16.6g} {metric['unit']}{samples}")
    if "self_time" in detail:
        from bench.trace import format_table

        rows = [row for row in detail["self_time"] if row["phase"] == "round"]
        print(format_table(rows, detail["traced_wall_s"]))
        print(
            f"   spans cover {detail['span_coverage']:.1%} of a round; "
            f"targets resolved {detail['targets_resolved']:.0%}; trace: {detail['trace_file']}"
        )
        for target in detail["missing_layers"]:
            print(f"   missing layer: {target}")


def _spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict[str, Any]:
    command = [
        sys.executable, "-m", "bench", "run",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, **PINNED_ENV},
        capture_output=True,
        text=True,
        timeout=900,
        check=False,
    )
    elapsed = time.perf_counter() - started
    if done.stderr:
        sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    detail = next(
        (json.loads(line[len("DETAIL "):]) for line in lines if line.startswith("DETAIL ")), {}
    )
    return {"result": json.loads(lines[-1]), "detail": detail, "elapsed_s": elapsed}


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )  # fmt: skip
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def fit_repeats(repeats: int, seconds: float, extra_runs: int) -> int:
    """Budget guard: cut repeats (never run length) until the suite fits."""
    per_run = seconds + RUN_OVERHEAD_SECONDS
    while repeats > MIN_REPEATS and len(WORKLOADS) * (repeats + extra_runs) * per_run > TIME_CAP_SECONDS:
        repeats -= 1
    return repeats


def run_suite(
    seed: int,
    seconds: float,
    repeats: int,
    out: Path | None,
    smoke: bool,
    second_seed: int | None,
) -> int:
    spec = load_spec()
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    # A traced run measures one and a half passes; a second-seed run is one.
    extra = 2 + (1 if second_seed is not None else 0)
    fitted = fit_repeats(repeats, seconds, extra)
    if fitted != repeats:
        print(f"budget guard: {repeats} repeats would pass {TIME_CAP_SECONDS} s; using {fitted}")
        repeats = fitted
    record: dict[str, Any] = {
        "schema": 1,
        "seed": seed,
        "second_seed": second_seed,
        "git_sha": _git_sha(),
        "run_seconds": seconds,
        "repeats": repeats,
        "smoke": smoke,
        **environment(),
        "calib": calibrate(),
        "workloads": {},
    }
    suite_started = time.perf_counter()
    any_failed = False
    for workload in WORKLOADS:
        started = time.perf_counter()
        runs = [_spawn(workload, seed, seconds, 0, smoke) for _ in range(repeats)]
        traced = _spawn(workload, seed, seconds, 1, smoke)
        attempted = sum(run["result"]["attempted"] for run in runs + [traced])
        failed = sum(run["result"]["failed"] for run in runs + [traced])
        entry: dict[str, Any] = {
            "runs": [run["result"] for run in runs],
            "run_details": [run["detail"] for run in runs],
            "run_elapsed_s": [run["elapsed_s"] for run in runs],
            "end_to_end": {
                name: summarize(
                    [run["result"]["metrics"][name]["value"] for run in runs], unit
                )
                for name, unit in units.items()
            },
            "attempted": attempted,
            "failed": failed,
            "failed_ops_share": failed / attempted,
            "per_layer": traced["result"]["metrics"],
            "traced": traced["detail"],
        }
        if second_seed is not None:
            other = _spawn(workload, second_seed, seconds, 0, smoke)
            entry["second_seed"] = other["result"]
            failed += other["result"]["failed"]
        entry["elapsed_s"] = time.perf_counter() - started
        record["workloads"][workload] = entry
        any_failed = any_failed or failed > 0

        print_run(workload, {"result": traced["result"], "detail": traced["detail"]})
        print(f"-- {workload}: end to end over {repeats} runs (median, quartile spread)")
        for name, summary in entry["end_to_end"].items():
            print(
                f"   {name:<16} {summary['median']:>14.6g} {summary['unit']:<7} "
                f"spread {summary['spread']:.1%}"
            )
        print(
            f"-- {workload}: failed_ops_share {entry['failed_ops_share']:.6f} "
            f"({failed}/{attempted}); elapsed {entry['elapsed_s']:.1f} s "
            f"({', '.join(f'{e:.1f}' for e in entry['run_elapsed_s'])} s per untraced run)"
        )
        if "second_seed" in entry:
            verdict = "passes" if entry["second_seed"]["correct"] else "FAILS"
            print(f"-- {workload}: seed {second_seed} {verdict} every oracle (not gated)")
    record["elapsed_s"] = time.perf_counter() - suite_started
    out = out if out is not None else ROOT / DEFAULT_OUT_DIR / "run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"suite: {record['elapsed_s']:.0f} s in total; record written to {out}")
    if any_failed:
        print("suite: FAILED operations or oracle mismatches (failed_ops_share > 0)")
        return 1
    return 0
