"""Backup-scheduling walkthrough: the full production loop of Section 2.

This example exercises the complete path the paper describes:

1. raw telemetry lands in the (simulated) raw store,
2. the weekly load-extraction query writes per-region extracts to the data
   lake,
3. the AML pipeline runs once per region on that region's extracts,
4. the backup scheduler moves backups of predictable servers into their
   predicted lowest-load windows via the service-fabric property,
5. the impact analysis reports the Figure 13(a) quantities.

Run with:  python examples/backup_scheduling_walkthrough.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro import (
    BackupImpactAnalyzer,
    BackupScheduler,
    DataLakeStore,
    ExtractKey,
    PipelineConfig,
    SeagullPipeline,
    WorkloadGenerator,
    default_fleet_spec,
)
from repro.features.extractor import FeatureExtractionModule
from repro.scheduling.runner import RunnerService
from repro.storage.query import ExtractQuery
from repro.telemetry.extraction import LoadExtractionQuery
from repro.telemetry.raw_store import RawTelemetryStore
from repro.timeseries.frame import LoadFrame


def main() -> None:
    # The lake is a directory of extracts; a throwaway one does for a demo.
    with tempfile.TemporaryDirectory(prefix="seagull-walkthrough-") as lake_dir:
        walkthrough(lake_dir)


def walkthrough(lake_dir: str) -> None:
    regions = ("region-0", "region-1")
    spec = default_fleet_spec(servers_per_region=(60, 30), weeks=4, seed=29)
    fleet = WorkloadGenerator(spec).generate_fleet()

    # ---- 1. Raw telemetry + 2. weekly extraction --------------------------
    raw = RawTelemetryStore()
    raw.ingest_frame(fleet, noise_rng=np.random.default_rng(0))
    lake = DataLakeStore(lake_dir)
    extraction = LoadExtractionQuery(raw, lake)
    for week in range(spec.weeks):
        for report in extraction.extract_all_regions(week):
            print(f"extracted {report.key.region} week {report.key.week}: "
                  f"{report.servers} servers, {report.extracted_points:,} points")

    # ---- 3. Pipeline run per region ---------------------------------------
    pipeline = SeagullPipeline(PipelineConfig())
    results = {}
    for region in regions:
        # Stitch the four weekly extracts into one 4-week frame, the input
        # shape the paper uses for the model comparison (Section 5.3.1).
        merged: LoadFrame | None = None
        for week in range(spec.weeks):
            weekly = lake.query(ExtractQuery.for_key(ExtractKey(region, week))).frame
            if merged is None:
                merged = weekly
                continue
            combined = LoadFrame(5)
            for sid, metadata, series in merged.items():
                if sid in weekly:
                    combined.add_server(metadata, series.concat(weekly.series(sid)))
                else:
                    combined.add_server(metadata, series)
            for sid, metadata, series in weekly.items():
                if sid not in combined:
                    combined.add_server(metadata, series)
            merged = combined
        assert merged is not None
        results[region] = pipeline.run(merged, region=region, week=spec.weeks - 1)
        summary = results[region].summary
        print(f"\n{region}: windows correct {summary.pct_windows_correct:.1f}%, "
              f"load accurate {summary.pct_load_accurate:.1f}%, "
              f"predictable {summary.pct_predictable_servers:.1f}%")

    # ---- 4. Online scheduling within the runner service -------------------
    # Runners consume predictions through the pipeline's serving layer:
    # requests route to each region's ACTIVE model version and repeated
    # horizon queries are answered from the prediction cache.
    for region in regions:
        result = results[region]
        runner = RunnerService(
            region,
            BackupScheduler(),
            probes={"backup_service": lambda: True},
            serving=pipeline.serving,
        )
        region_fleet = fleet.filter(lambda md, s, region=region: md.region == region)
        metadata = {sid: region_fleet.metadata(sid) for sid in region_fleet.server_ids()}
        execution = runner.run_day(
            cluster=f"{region}-cluster-0",
            day=spec.weeks * 7 - 1,
            metadata_by_server=metadata,
            verdicts=result.predictability,
        )
        moved = sum(1 for d in execution.decisions.values() if d.moved)
        served = execution.serving
        print(f"\n{region}: scheduled {len(execution.decisions)} backups, moved {moved} "
              f"into predicted LL windows (availability {runner.availability():.0%})")
        if served is not None:
            print(f"  served by model version v{served.served_by_version}: "
                  f"{served.n_served} predictions, {served.cache_hits} cache hits, "
                  f"{len(served.skipped)} skipped")

        # ---- 5. Impact analysis (Figure 13(a)) ----------------------------
        features = FeatureExtractionModule().extract_frame(region_fleet)
        report = BackupImpactAnalyzer().analyze(region_fleet, execution.decisions, features)
        print(f"  moved to LL window          : {report.pct_moved_to_ll_window:6.2f}%")
        print(f"  default already LL          : {report.pct_default_already_ll:6.2f}%")
        print(f"  windows not chosen correctly: {report.pct_windows_incorrect:6.2f}%")
        print(f"  stable servers default = LL : {report.pct_stable_default_already_ll:6.2f}%")
        print(f"  improved customer hours     : {report.improved_hours:6.1f}h")

    # ---- 6. Component runtimes per run (Figure 12(a)) ---------------------
    for result in results.values():
        print(f"\nrun {result.run_id} component runtimes")
        for component, seconds in result.timings.items():
            print(f"  - {component}: {seconds:.3f}s")


if __name__ == "__main__":
    main()
