#!/usr/bin/env python
"""Alternating parent/change pairs of benchmark workloads.

The protocol a performance claim in this repo rests on (choosing-metrics
section 8), as one command instead of a shell loop:

* ``git archive`` the parent ref and the change ref into two temporary
  directories, so both sides run committed files and nothing else;
* per ``--workload``, run ``python3 -m bench run --workload W --trace 0`` in
  each, ``N`` times, alternating which side goes first, and parse the last
  stdout line;
* per end-to-end metric of ``BENCHMARK.json`` print each side's median
  ``[q1..q3]``, how many pairs the change won and tied, and a verdict:

  - ``gain`` -- the change wins at least nine tenths of the pairs (ties
    count for neither side) *and* the medians are further apart than the
    parent's own quartiles: the rule a claimed gain is accepted by;
  - ``worse`` -- the change's median is worse than the parent's by more
    than the metric's ``bound``, or by more than the parent's quartile
    spread while the parent wins at least nine tenths of the pairs: the
    rule a PR is rejected by;
  - ``within bound`` -- neither;

* with ``--layer NAME`` (repeatable), one extra ``--trace 1`` run a side and
  the named per-layer metrics side by side -- where the time went, and the
  deterministic counts that must not move;
* print each side's failed share.  Exit status 1 if any metric is
  ``worse`` or the change's failed share is above the parent's.

Usage::

    python scripts/bench_pairs.py <parent-ref> --workload live-loop --pairs 10
    python scripts/bench_pairs.py HEAD~1 --workload lake-query --workload fleet-pf \
        --layer fileio.read_bytes --layer columnar.scan_calls
    python scripts/bench_pairs.py HEAD~1 --change "$(git stash create)" --workload lake-query

Stdlib only; needs ``git`` and ``tar`` on the path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def export(ref: str, dest: Path) -> None:
    """The committed tree of ``ref``, unpacked into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", ref], check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, traced: bool = False) -> dict:
    """One run of ``workload`` in ``tree``: its result object."""
    done = subprocess.run(
        ["python3", "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced))],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    """``(verdict, wins, ties, parent quartiles, change quartiles)`` of one
    metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change, strict=True))
    ties = sum(c == p for p, c in zip(parent, change, strict=True))
    losses = len(parent) - wins - ties
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    spread = p3 - p1
    worse_by = sign * (cm - pm)  # positive: the change's median is worse
    if wins >= 0.9 * len(parent) and -worse_by > spread:
        word = "gain"
    elif worse_by > bound * abs(pm) or (losses >= 0.9 * len(parent) and worse_by > spread):
        word = "worse"
    else:
        word = "within bound"
    return word, wins, ties, (p1, pm, p3), (c1, cm, c3)


def compare_workload(trees: dict[str, Path], workload: str, args, metrics: list[dict]) -> bool:
    """Run and print one workload's pairs; whether the change may land."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, args.seed))
        print(f"{workload}: pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    ok = True
    print(f"{workload}  seed {args.seed}  {args.pairs} pair(s)  "
          f"parent {args.parent}  change {args.change}")
    print(f"{'metric':<14}{'parent median [q1..q3]':>34}{'change median [q1..q3]':>34}"
          f"{'wins':>6}{'ties':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        word, wins, ties, (p1, pm, p3), (c1, cm, c3) = verdict(
            parent, change, metric["better"], metric["bound"]
        )
        ok = ok and word != "worse"
        print(f"{name:<14}"
              f"{f'{pm:.4g} [{p1:.4g}..{p3:.4g}]':>34}{f'{cm:.4g} [{c1:.4g}..{c3:.4g}]':>34}"
              f"{wins:>6}{ties:>6}  {word}  ({metric['unit']}, bound {metric['bound']:.0%})")

    if args.layer:
        traced = {side: run_once(trees[side], workload, args.seed, traced=True)
                  for side in ("parent", "change")}
        for side in traced:  # their operations count towards the failed share
            runs[side].append(traced[side])
        print(f"{'layer metric (one traced run a side)':<44}{'parent':>16}{'change':>16}")
        for name in args.layer:
            values = [traced[side]["metrics"].get(name, {}).get("value") for side in traced]
            cells = "".join(f"{'absent' if v is None else f'{v:.6g}':>16}" for v in values)
            print(f"{name:<44}{cells}")

    shares = {}
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        shares[side] = failed / attempted
        print(f"{side} failed {failed}/{attempted}")
    return ok and shares["change"] <= shares["parent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    parser.add_argument("--workload", required=True, action="append",
                        help="workload to pair; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--layer", action="append", default=[], metavar="NAME",
                        help="per-layer metric to print from one extra traced run a side; "
                             "repeat for several")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        for workload in args.workload:
            ok = compare_workload(trees, workload, args, metrics) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
