# Convenience targets mirroring .github/workflows/ci.yml.

.PHONY: ci hygiene lint invariants typecheck test examples-smoke bench-smoke bench-baseline bench-record fleet-demo

## Run every CI gate locally (hygiene + lint + typecheck + tests + examples
## smoke + bench baseline).
ci:
	bash scripts/ci.sh

## Fail if compiled Python artifacts are committed (also part of `ci`).
hygiene:
	@if git ls-files | grep -E '__pycache__|\.py[cod]$$'; then \
		echo "error: compiled Python artifacts are committed" >&2; exit 1; \
	else echo "clean"; fi

## Ruff critical-error gate (requires ruff; CI installs it) plus the
## repo-specific invariant linter (stdlib-only, always available).
lint: invariants
	ruff check .

## Repo-specific AST invariant linter (the ownership rows api-boundary,
## manifest-boundary, live-boundary and format-invariants, plus
## import-layering, lock-discipline, frozen-dataclass, broad-except).
## Run by path: it imports nothing from repro, so it needs no installed
## dependency and reports a file that does not parse as parse-error.
invariants:
	python src/repro/devtools/lint.py src

## Mypy over the typed API surface, storage (with its manifest
## subsystem), serving, fleet_ops and parallel (requires mypy; CI
## installs it).
typecheck:
	python -m mypy src/repro/storage src/repro/serving src/repro/fleet_ops src/repro/parallel

## Full test suite.
test:
	python -m pytest -x -q

## Every script under examples/ runs to completion, and the fleet CLI's
## warm re-run over a fresh --cache-dir exits 0 with every unit served
## from the unit cache and each outcome equal to its cold twin as
## canonical JSON (timing and cache-activity fields aside); a second model over the same --cache-dir then
## reuses every unit's features and misses one model stage per unit, an
## SSA fleet run and a seasonal_additive one (the Prophet stand-in, through
## lake -> orchestrator -> serving) each fit every unit without a failure,
## and `convert` adopts a legacy directory (one .csv, one .sgx) at
## generation 1 with .sgx entries only (also part of `ci`; the CI test job
## runs this target).
examples-smoke:
	@for f in examples/*.py; do python "$$f" >/dev/null || exit 1; echo "ok $$f"; done
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	PYTHONPATH=src python -m repro.fleet_ops --servers 6,4 --weeks 1 \
		--cache-dir "$$tmp/cache" --rerun --json > "$$tmp/report.json" \
	&& python -c 'import json, sys; warm = json.load(open(sys.argv[1]))["rerun"]; sys.exit(warm["cache"]["unit_hits"] != warm["n_units"])' "$$tmp/report.json" \
	&& echo "ok python -m repro.fleet_ops --cache-dir --rerun" \
	&& python -c 'import json, sys; report = json.load(open(sys.argv[1])); drop = ("wall_seconds", "cache_events", "from_unit_cache"); canon = lambda o: json.dumps({k: v for k, v in o.items() if k not in drop}, sort_keys=True); sys.exit([canon(o) for o in report["run"]["outcomes"]] != [canon(o) for o in report["rerun"]["outcomes"]])' "$$tmp/report.json" \
	&& echo "ok python -m repro.fleet_ops --rerun (each warm outcome equals its cold twin as JSON)" \
	&& PYTHONPATH=src python -m repro.fleet_ops --servers 6,4 --weeks 1 \
		--cache-dir "$$tmp/cache" --model persistent_previous_week_average --json > "$$tmp/model.json" \
	&& python -c 'import json, sys; run = json.load(open(sys.argv[1]))["run"]; n = run["n_units"]; sys.exit((run["cache"]["stage_hits"], run["cache"]["stage_misses"]) != (n, n))' "$$tmp/model.json" \
	&& echo "ok python -m repro.fleet_ops --cache-dir --model (features reused, one model stage per unit)" \
	&& PYTHONPATH=src python -m repro.fleet_ops --servers 6,4 --weeks 1 --model ssa --json > "$$tmp/ssa.json" \
	&& python -c 'import json, sys; run = json.load(open(sys.argv[1]))["run"]; sys.exit(run["n_failed"] != 0)' "$$tmp/ssa.json" \
	&& echo "ok python -m repro.fleet_ops --model ssa (no failed unit)" \
	&& PYTHONPATH=src python -m repro.fleet_ops --servers 6,4 --weeks 1 --model seasonal_additive --json > "$$tmp/seasonal.json" \
	&& python -c 'import json, sys; run = json.load(open(sys.argv[1]))["run"]; sys.exit(run["n_failed"] != 0)' "$$tmp/seasonal.json" \
	&& echo "ok python -m repro.fleet_ops --model seasonal_additive (no failed unit)" \
	&& PYTHONPATH=src python -c 'import sys; from pathlib import Path; from repro.storage import columnar, csv_io; from repro.timeseries.frame import LoadFrame, ServerMetadata; from repro.timeseries.series import LoadSeries; f = LoadFrame(5); f.add_server(ServerMetadata("s0", "r0"), LoadSeries.from_values([1.0, 2.0, 3.0])); d = Path(sys.argv[1]) / "r0"; csv_io.write_frame_csv(f, d / "extract_r0_week0000.csv"); (d / "extract_r0_week0001.sgx").write_bytes(columnar.frame_to_sgx_bytes(f))' "$$tmp/legacy" \
	&& PYTHONPATH=src python -m repro.fleet_ops convert --lake-dir "$$tmp/legacy" > /dev/null \
	&& PYTHONPATH=src python -m repro.fleet_ops manifest --lake-dir "$$tmp/legacy" --json > "$$tmp/manifest.json" \
	&& python -c 'import json, sys; snap = json.load(open(sys.argv[1]))["snapshot"]; paths = [s["relpath"] for s in snap["segments"]]; sys.exit(snap["generation"] != 1 or len(paths) != 2 or not all(p.endswith(".sgx") for p in paths))' "$$tmp/manifest.json" \
	&& echo "ok python -m repro.fleet_ops convert (a legacy .csv and .sgx adopted at generation 1, .sgx entries only)"

## Quick benchmark smoke: the jobs CI runs on every PR.
bench-smoke:
	python -m pytest benchmarks tests/test_crash_recovery.py -q -k "classification or fig12a or columnar or serving or query or aggregates or crash or live"

## Benchmark smoke + regression gate against the committed BENCH_seed.json.
bench-baseline:
	python -m pytest benchmarks tests/test_crash_recovery.py -q -k "classification or fig12a or columnar or serving or query or aggregates or crash or live" \
		--bench-json BENCH_current.json
	python scripts/bench_baseline.py BENCH_current.json

## Trajectory record of this tree, both seeds, from the unmodified harness:
## `make bench-record N=<n>` writes BENCH_<n>.json (commit it).
bench-record:
	@test -n "$(N)" || { echo "usage: make bench-record N=<number>" >&2; exit 2; }
	python -m bench run --seed 11 --second-seed 12 --out BENCH_$(N).json

## Fleet orchestrator demo: cold + warm-cache run over a synthetic fleet.
fleet-demo:
	@cache="$$(mktemp -d)"; trap 'rm -rf "$$cache"' EXIT; \
	PYTHONPATH=src python -m repro.fleet_ops --servers 16,10,6 --weeks 2 \
		--cache-dir "$$cache" --rerun
