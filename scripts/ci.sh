#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: run the same gates CI runs,
# from a clean checkout, with no PYTHONPATH tweaks needed.
#
# Tools CI installs but a local environment may lack (ruff, mypy,
# pytest-timeout) are detected and skipped with a notice, so the script
# always exercises at least everything the local environment can.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== repo hygiene (no compiled artifacts committed) =="
if git ls-files | grep -E '__pycache__|\.py[cod]$' ; then
    echo "error: compiled Python artifacts are committed; run" >&2
    echo "  git rm -r --cached <paths above>" >&2
    exit 1
fi
echo "clean"

echo
echo "== lint (ruff critical-error gate) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
elif python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check .
else
    echo "ruff not installed locally; skipping (the CI lint job runs it)"
fi

echo
echo "== invariants (repo-specific AST linter) =="
python src/repro/devtools/lint.py src

echo
echo "== typecheck (mypy: storage incl. manifest + serving + fleet_ops + parallel) =="
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy src/repro/storage src/repro/serving src/repro/fleet_ops src/repro/parallel
else
    echo "mypy not installed locally; skipping (the CI typecheck job runs it)"
fi

echo
echo "== test suite + python -m bench smoke test =="
python -m pytest tests bench -x -q

echo
echo "== examples smoke (each script runs to completion; fleet CLI warm re-run hits the cache and equals the cold run; a second model reuses features; an SSA and a seasonal_additive fleet run have no failed unit; convert adopts a legacy .csv + .sgx directory at generation 1) =="
make --no-print-directory examples-smoke

echo
echo "== benchmark smoke + baseline gate =="
timeout_flag=""
if python -c "import pytest_timeout" >/dev/null 2>&1; then
    timeout_flag="--timeout=300"
fi
bench_json="$(mktemp -t bench-XXXXXX.json)"
trap 'rm -f "${bench_json}"' EXIT
python -m pytest benchmarks tests/test_crash_recovery.py -q \
    -k "classification or fig12a or columnar or serving or query or aggregates or crash or live" \
    ${timeout_flag} --bench-json "${bench_json}"
python scripts/bench_baseline.py "${bench_json}"

echo
echo "All CI-equivalent checks passed."
