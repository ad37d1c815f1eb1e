"""Fleet orchestrator: multi-region sharding and artifact-cache speedups.

The paper's production system runs the pipeline per region across the
whole fleet; the orchestrator benchmark measures the two levers this
reproduction adds on top of the single-region pipeline:

* sharding ``(region, week)`` units across a worker pool versus the
  seed's serial one-region-at-a-time loop, and
* re-running an unchanged fleet against the artifact cache (unit outcomes
  keyed by raw extract fingerprint), which skips ingestion, feature
  extraction, model fitting and evaluation entirely.

The serial-vs-sharded timings are printed, never asserted: whether a
process pool beats the serial loop depends on the host (on two cores it
usually does not), and wall-clock comparisons with noise handling live in
``python -m bench compare``.  What *is* asserted is deterministic -- both
backends process the same units and produce identical per-unit outcomes.
The warm-cache speedup is hardware-independent and always asserted.
"""

from __future__ import annotations

from bench_utils import print_table
from repro.core.config import PipelineConfig
from repro.fleet_ops.orchestrator import FleetOrchestrator
from repro.fleet_ops.synthesis import populate_lake
from repro.parallel.executor import recommended_fleet_workers
from repro.storage.datalake import DataLakeStore
from repro.telemetry.fleet import default_fleet_spec

#: Three differently sized regions, two weekly extract cycles each.
FLEET_SERVERS = (16, 10, 6)
EXTRACT_WEEKS = 2

#: A forecaster with a real training cost, so that compute (not
#: ingestion) dominates and sharding/caching effects are representative.
MODEL = "seasonal_additive"


def _make_lake(tmp_path_factory) -> DataLakeStore:
    spec = default_fleet_spec(servers_per_region=FLEET_SERVERS, weeks=4, seed=211)
    lake = DataLakeStore(tmp_path_factory.mktemp("fleet-lake"))
    populate_lake(lake, spec, weeks=range(EXTRACT_WEEKS))
    return lake


def test_fleet_parallel_vs_serial(benchmark, tmp_path_factory):
    lake = _make_lake(tmp_path_factory)
    n_units = len(FLEET_SERVERS) * EXTRACT_WEEKS
    workers = recommended_fleet_workers(n_units)
    timings: dict[str, float] = {}

    def run_both():
        with FleetOrchestrator(lake, PipelineConfig(model_name=MODEL)) as serial:
            serial_report = serial.run()
        with FleetOrchestrator(
            lake,
            PipelineConfig(model_name=MODEL),
            backend="processes",
            n_workers=workers,
        ) as parallel:
            # One throwaway unit warms the pool so measured time is compute,
            # not process start-up (the orchestrator reuses the pool).
            parallel.run(lake.list_extracts()[:1])
            parallel_report = parallel.run()
        return serial_report, parallel_report

    serial_report, parallel_report = benchmark.pedantic(run_both, rounds=1, iterations=1)
    timings["serial"] = serial_report.wall_seconds
    timings["parallel"] = parallel_report.wall_seconds

    assert serial_report.n_failed == 0
    assert parallel_report.n_failed == 0
    assert serial_report.n_units == len(FLEET_SERVERS) * EXTRACT_WEEKS
    assert parallel_report.backend == "processes"
    # Sharding changes where a unit runs, never what it computes.
    for serial_unit, parallel_unit in zip(
        serial_report.outcomes, parallel_report.outcomes, strict=True
    ):
        assert (parallel_unit.region, parallel_unit.week) == (serial_unit.region, serial_unit.week)
        assert parallel_unit.summary == serial_unit.summary
        assert parallel_unit.n_predictable == serial_unit.n_predictable

    speedup = timings["serial"] / timings["parallel"] if timings["parallel"] else float("inf")
    print_table(
        "Fleet orchestrator: serial loop vs sharded (region, week) units",
        ["variant", "backend", "workers", "units", "wall_seconds", "speedup"],
        [
            ["serial", serial_report.backend, serial_report.n_workers,
             serial_report.n_units, timings["serial"], 1.0],
            ["parallel", parallel_report.backend, parallel_report.n_workers,
             parallel_report.n_units, timings["parallel"], speedup],
        ],
    )


def test_fleet_warm_cache_rerun(benchmark, tmp_path_factory):
    lake = _make_lake(tmp_path_factory)
    cache_dir = tmp_path_factory.mktemp("fleet-cache")

    with FleetOrchestrator(
        lake, PipelineConfig(model_name=MODEL), cache_dir=cache_dir
    ) as orchestrator:
        cold = orchestrator.run()

        def rerun_warm():
            return orchestrator.run()

        warm = benchmark.pedantic(rerun_warm, rounds=1, iterations=1)

    assert cold.n_failed == 0 and warm.n_failed == 0
    assert cold.cache_summary()["unit_hits"] == 0
    assert warm.cache_summary()["unit_hits"] == cold.n_units

    speedup = cold.wall_seconds / warm.wall_seconds if warm.wall_seconds else float("inf")
    print_table(
        "Fleet orchestrator: cold run vs warm-cache re-run (identical extracts)",
        ["variant", "units", "unit_cache_hits", "wall_seconds", "speedup"],
        [
            ["cold", cold.n_units, 0, cold.wall_seconds, 1.0],
            ["warm", warm.n_units, warm.cache_summary()["unit_hits"],
             warm.wall_seconds, speedup],
        ],
    )
    # Warm outcomes must be byte-for-byte the cold results.
    for before, after in zip(cold.outcomes, warm.outcomes, strict=True):
        assert after.summary == before.summary
        assert after.n_predictable == before.n_predictable

    # Acceptance: warm-cache re-run at least 2x faster than the cold run.
    assert warm.wall_seconds * 2 <= cold.wall_seconds, (
        f"warm rerun {warm.wall_seconds:.2f}s vs cold {cold.wall_seconds:.2f}s "
        f"(speedup {speedup:.1f}x < 2x)"
    )
