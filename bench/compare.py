"""``python -m bench compare A.json B.json``: judge B against A.

One row per (end-to-end metric, workload), using the bounds fixed in
``BENCHMARK.json``:

* **regressed** -- B's median is worse than A's by more than the bound;
* **unresolved** -- the run-to-run spread (interquartile distance over the
  median) of either side is wider than the bound, so the records cannot say
  whether the metric held -- unless every run of B reads better than every
  run of A, which counts as *better*;
* **better** -- B's median is better by more than both sides' spread;
* **within bound** -- anything else.

Exit status is non-zero on any regression or when a workload's
``failed_ops_share`` went up.  Deterministic layer counts that differ between
the two records are listed (informational: they compare two versions of one
program and omit waiting).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from bench.harness import load_spec

#: Counts made by the program repeat exactly for one commit and seed.  The
#: ones below agree only within ``NEAR_TOLERANCE``: /proc counters include the
#: interpreter's own reads, and cached outcomes store wall times as text.
NEAR_EXACT = (
    "fileio.read_bytes",
    "fileio.write_bytes",
    "fileio.read_syscalls",
    "fileio.read_bytes_per_point_query",
    "artifacts.bytes_on_disk",
)
NEAR_TOLERANCE = 0.02
COUNT_UNITS = ("count", "rows", "B", "B/row", "ratio")


def judge(
    a: dict[str, Any], b: dict[str, Any], better: str, bound: float
) -> tuple[str, float]:
    """Verdict for one metric and B's signed change (positive = worse)."""
    median_a, median_b = a["median"], b["median"]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    spread = max(a["spread"], b["spread"])
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    if b_always_better:
        return "better", change
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "regressed", change
    if change < -spread:
        return "better", change
    return "within bound", change


def compare_records(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether B fails against A."""
    spec = load_spec()
    lines: list[str] = []
    failed = False
    if (a.get("seed"), a.get("run_seconds")) != (b.get("seed"), b.get("run_seconds")):
        lines.append(
            f"note: records differ in seed/run_seconds "
            f"({a.get('seed')}/{a.get('run_seconds')} vs {b.get('seed')}/{b.get('run_seconds')})"
        )
    lines.append(
        f"{'workload':<11} {'metric':<14} {'A median':>12} {'B median':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    tally: dict[str, int] = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        in_a, in_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if in_a is None or in_b is None:
            lines.append(f"{workload:<11} missing from one record")
            failed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            side_a, side_b = in_a["end_to_end"][name], in_b["end_to_end"][name]
            verdict, change = judge(side_a, side_b, metric["better"], metric["bound"])
            tally[verdict] = tally.get(verdict, 0) + 1
            failed = failed or verdict == "regressed"
            lines.append(
                f"{workload:<11} {name:<14} {side_a['median']:>12.5g} {side_b['median']:>12.5g} "
                f"{change:>+8.1%} {max(side_a['spread'], side_b['spread']):>7.1%} "
                f"{metric['bound']:>6.0%}  {verdict}"
            )
        share_a, share_b = in_a["failed_ops_share"], in_b["failed_ops_share"]
        if share_b > share_a:
            failed = True
            lines.append(
                f"{workload:<11} failed_ops_share rose from {share_a:.6f} to {share_b:.6f}"
            )
        lines.extend(_count_differences(workload, spec, in_a, in_b))
    lines.append("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    return lines, failed


def _count_differences(
    workload: str, spec: dict[str, Any], a: dict[str, Any], b: dict[str, Any]
) -> list[str]:
    out = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if metric["unit"] not in COUNT_UNITS or name.startswith("calib."):
            continue
        value_a = a["per_layer"].get(name, {}).get("value", 0.0)
        value_b = b["per_layer"].get(name, {}).get("value", 0.0)
        if name in NEAR_EXACT:
            same = abs(value_b - value_a) <= NEAR_TOLERANCE * max(abs(value_a), 1.0)
        else:
            same = value_a == value_b
        if not same:
            out.append(f"{workload:<11} count {name} differs: {value_a:.6g} vs {value_b:.6g}")
    return out


def compare_files(path_a: Path, path_b: Path) -> int:
    lines, failed = compare_records(
        json.loads(path_a.read_text()), json.loads(path_b.read_text())
    )
    print("\n".join(lines))
    return 1 if failed else 0
