#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload.

The protocol a performance claim in this repo rests on (choosing-metrics
section 8), as one command instead of a shell loop:

* ``git archive`` the parent ref and the change ref into two temporary
  directories, so both sides run committed files and nothing else;
* run ``python3 -m bench run --workload W --trace 0`` in each, ``N`` times,
  alternating which side goes first, and parse the last stdout line;
* per end-to-end metric of ``BENCHMARK.json`` print each side's median
  ``[q1..q3]``, how many pairs the change won and tied, and whether that is
  a gain by the rule -- the change wins at least nine tenths of the pairs
  (ties count for neither side) *and* the medians are further apart than
  the parent's own quartiles -- plus each side's failed share.

Usage::

    python scripts/bench_pairs.py <parent-ref> --workload live-loop --pairs 10
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


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run of ``workload`` in ``tree``: its result object."""
    done = subprocess.run(
        ["python3", "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, args.seed))
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}  seed {args.seed}  {args.pairs} pair(s)  "
          f"parent {args.parent}  change {args.change}")
    print(f"{'metric':<14}{'parent median [q1..q3]':>34}{'change median [q1..q3]':>34}"
          f"{'wins':>6}{'ties':>6}  gain")
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gain = wins >= 0.9 * args.pairs and sign * (pm - cm) > p3 - p1
        print(f"{name:<14}"
              f"{f'{pm:.4g} [{p1:.4g}..{p3:.4g}]':>34}{f'{cm:.4g} [{c1:.4g}..{c3:.4g}]':>34}"
              f"{wins:>6}{ties:>6}  {'yes' if gain else 'no'}  ({metric['unit']})")
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        print(f"{side} failed {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
