"""Command line of the benchmark: ``python -m bench {run,compare}``."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench.harness import PINNED_ENV, ROOT, load_spec, run_workload

SRC = ROOT / "src"


def _pin_environment() -> None:
    """Re-exec once with the pinned environment, before numpy is imported.

    BLAS thread counts are read when numpy loads and the hash seed when the
    interpreter starts, so setting them here would be too late.
    """
    if all(os.environ.get(name) == value for name, value in PINNED_ENV.items()):
        return
    os.execve(
        sys.executable,
        [sys.executable, "-m", "bench", *sys.argv[1:]],
        {**os.environ, **PINNED_ENV},
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="run one workload (--workload) or the whole suite into a run record",
    )
    run.add_argument("--workload", help="run only this workload, once, and print its result")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--smoke", action="store_true", help="tiny inputs, seconds in total")
    run.add_argument("--out", type=Path, help="suite: where to write the run record")
    run.add_argument("--repeats", type=int, default=5, help="suite: untraced runs per workload")
    run.add_argument(
        "--second-seed", type=int, default=None, help="suite: also run once at this seed"
    )

    compare = commands.add_parser("compare", help="judge record B against record A")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.a, args.b)

    if not (SRC / "repro").is_dir():
        print(f"bench: the program under test is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else float(load_spec()["run_seconds"])
    if args.workload is None:
        from bench.suite import run_suite

        return run_suite(
            seed=args.seed,
            seconds=seconds,
            repeats=args.repeats,
            out=args.out,
            smoke=args.smoke,
            second_seed=args.second_seed,
        )

    from bench.suite import print_run

    outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace), smoke=args.smoke)
    print_run(args.workload, outcome)
    print("DETAIL " + json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
