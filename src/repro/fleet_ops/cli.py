"""Command-line entry point: ``python -m repro.fleet_ops``.

Five commands:

* the default (no subcommand) generates (or reuses) a synthetic
  multi-region lake, runs the fleet orchestrator over every
  ``(region, week)`` extract, and prints the consolidated fleet report.
  ``--rerun`` runs the fleet twice to show the artifact cache at work
  (the second pass serves unchanged extracts from the unit-outcome
  cache);
* ``python -m repro.fleet_ops convert`` adopts the extract files of a
  directory that predates the manifest, imports a lake's CSV entries as
  verified ``.sgx`` segments, re-chunks segments under
  ``--chunk-minutes``, and prints a rollup of extracts, rows and bytes
  converted;
* ``python -m repro.fleet_ops manifest`` inspects a lake's transactional
  manifest: committed generation, segment files, log records, and any
  crash leftovers recovery would clean up;
* ``python -m repro.fleet_ops gc`` physically reclaims segment files and
  generations no longer referenced by the current committed generation
  (deletes are logical until this runs);
* ``python -m repro.fleet_ops live`` simulates the streaming data plane:
  telemetry batches land in per-partition tail WALs, day-boundary seals
  commit manifest transactions, and drift verdicts on sealed windows
  retrain and promote serving models -- the full live loop in one process.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.fleet_ops.orchestrator import FleetOrchestrator
from repro.fleet_ops.synthesis import populate_lake
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.manifest import LakeManifest, LakeManifestError
from repro.storage.migrate import (
    ConversionVerificationError,
    adopt_legacy_files,
    convert_lake,
    fold_seal_watermarks,
)
from repro.telemetry.fleet import default_fleet_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet_ops",
        description="Run the Seagull pipeline over a multi-region fleet of weekly extracts.",
    )
    parser.add_argument(
        "--servers",
        default="24,16,10",
        help="comma-separated servers per region (one region per entry)",
    )
    parser.add_argument("--weeks", type=int, default=2, help="weekly extracts per region")
    parser.add_argument(
        "--horizon-weeks",
        type=int,
        default=4,
        help="weeks of telemetry inside each extract (the pipeline needs the "
        "training window plus history_weeks prior backup days)",
    )
    parser.add_argument("--seed", type=int, default=7, help="fleet generator seed")
    parser.add_argument(
        "--model",
        default="persistent_previous_day",
        help="forecaster to train per server",
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "threads", "processes"),
        default="serial",
        help="how (region, week) units are sharded",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count (default: the fleet heuristic -- "
        "min(units, usable CPUs, cap))",
    )
    parser.add_argument(
        "--lake-dir",
        default=None,
        help="directory for the extract lake (default: a temporary directory)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory, shared by every unit and worker (default: caching off)",
    )
    parser.add_argument(
        "--rerun",
        action="store_true",
        help="run the fleet twice to demonstrate warm-cache speedup",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def build_convert_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet_ops convert",
        description="Adopt the extract files of a directory that predates the lake "
        "manifest, import a lake's CSV entries as verified columnar .sgx segments "
        "(one transaction per extract) and health-check the segments already there.",
    )
    parser.add_argument("--lake-dir", required=True, help="root directory of the lake")
    parser.add_argument("--region", default=None, help="convert only this region")
    parser.add_argument(
        "--chunk-minutes",
        type=int,
        default=None,
        dest="chunk_minutes",
        help="chunking policy: split each server's series at "
        "absolute multiples of this many minutes (0 = one whole-series chunk; "
        "default: the columnar layer's per-day policy). Passing it explicitly "
        "also re-chunks extracts that are already .sgx",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the lossless round-trip verification of each converted extract",
    )
    parser.add_argument("--json", action="store_true", help="emit the rollup as JSON")
    return parser


def convert_main(argv: list[str]) -> int:
    args = build_convert_parser().parse_args(argv)
    if not Path(args.lake_dir).is_dir():
        # DataLakeStore would mkdir the path; a typo'd --lake-dir must not
        # turn into a silent "0 extract(s) converted" success.
        print(f"--lake-dir {args.lake_dir!r} does not exist", file=sys.stderr)
        return 2
    if args.region is not None and not (Path(args.lake_dir) / args.region).is_dir():
        # Same guard for a typo'd region name.
        print(
            f"--region {args.region!r} has no partition under {args.lake_dir!r}",
            file=sys.stderr,
        )
        return 2
    if args.chunk_minutes is not None and args.chunk_minutes < 0:
        print("--chunk-minutes must be non-negative", file=sys.stderr)
        return 2
    try:
        # Adoption and the watermark fold come first: until they have run,
        # the store refuses to open.
        manifest = LakeManifest(args.lake_dir)
        adopted = adopt_legacy_files(manifest)
        fold_seal_watermarks(manifest)
        report = convert_lake(
            DataLakeStore(args.lake_dir),
            region=args.region,
            verify=not args.no_verify,
            chunk_minutes=args.chunk_minutes,
        )
    except (ConversionVerificationError, ValueError) as exc:
        # ValueError covers unreadable extracts (ColumnarFormatError,
        # CsvSchemaError): abort with the documented exit code, not a
        # traceback.
        print(f"conversion aborted: {exc}", file=sys.stderr)
        return 1
    report.adopted = adopted
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0


def build_manifest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet_ops manifest",
        description="Inspect a lake's transactional manifest: committed "
        "generation, segment files and transaction log.",
    )
    parser.add_argument("--lake-dir", required=True, help="root directory of the lake")
    parser.add_argument("--json", action="store_true", help="emit the state as JSON")
    return parser


def manifest_main(argv: list[str]) -> int:
    args = build_manifest_parser().parse_args(argv)
    if not Path(args.lake_dir).is_dir():
        print(f"--lake-dir {args.lake_dir!r} does not exist", file=sys.stderr)
        return 2
    try:
        manifest = DataLakeStore(args.lake_dir).manifest
        snapshot = manifest.current()
    except LakeManifestError as exc:
        print(f"manifest unreadable: {exc}", file=sys.stderr)
        return 1
    pending = manifest.log.pending()
    if args.json:
        payload = {
            "root": str(manifest.root),
            "adopted": manifest.exists(),
            "snapshot": snapshot.as_dict(),
            "pending_txid": pending.txid if pending is not None else None,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"Lake manifest: {manifest.root}")
    txid = snapshot.txid if snapshot.txid is not None else "-"
    print(f"Committed generation: {snapshot.generation} (txid {txid})")
    total = sum(entry.size for entry in snapshot.segments)
    print(f"Segments: {len(snapshot.segments)} ({total} bytes)")
    for entry in snapshot.segments:
        print(
            f"  {entry.region} week {entry.week}: .{entry.fmt} "
            f"{entry.size} bytes [{entry.sha256[:12]}] {entry.relpath}"
        )
    suffix = (
        f"pending transaction {pending.txid} (unresolved until recovery)"
        if pending is not None
        else "no pending transaction"
    )
    print(f"Transaction log: {suffix}")
    return 0


def build_gc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet_ops gc",
        description="Physically reclaim lake files no longer referenced by "
        "the current committed generation (deletes are logical until this "
        "runs). Invalidates readers pinned to older generations.",
    )
    parser.add_argument("--lake-dir", required=True, help="root directory of the lake")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def gc_main(argv: list[str]) -> int:
    args = build_gc_parser().parse_args(argv)
    if not Path(args.lake_dir).is_dir():
        print(f"--lake-dir {args.lake_dir!r} does not exist", file=sys.stderr)
        return 2
    manifest = LakeManifest(Path(args.lake_dir))
    try:
        report = manifest.collect_garbage()
        generation = manifest.current().generation
    except LakeManifestError as exc:
        print(f"gc aborted: {exc}", file=sys.stderr)
        return 1
    if args.json:
        payload = dict(report.as_dict())
        payload["generation"] = generation
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"Lake gc at generation {generation}: "
        f"{report.segments_removed} segment file(s), "
        f"{report.generations_removed} old generation snapshot(s) and "
        f"{report.tmp_removed} temp file(s) removed, "
        f"{report.bytes_freed} bytes freed"
    )
    return 0


def build_live_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet_ops live",
        description="Simulate the live data plane: stream synthetic telemetry "
        "batches into tail WALs, seal them into the lake at day boundaries, "
        "and let window drift retrain and promote serving models.",
    )
    parser.add_argument(
        "--lake-dir",
        default=None,
        help="directory for the lake (default: a temporary directory)",
    )
    parser.add_argument("--region", default="region-live", help="region to ingest into")
    parser.add_argument("--servers", type=int, default=4, help="servers in the region")
    parser.add_argument("--days", type=int, default=4, help="days of telemetry to stream")
    parser.add_argument(
        "--batch-minutes",
        type=int,
        default=60,
        help="minutes of raw (1-minute) samples per ingested batch",
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=None,
        dest="interval_minutes",
        help="extract grid sealed segments are bucketed onto "
        "(default: the canonical 5-minute grid)",
    )
    parser.add_argument("--seed", type=int, default=7, help="telemetry generator seed")
    parser.add_argument(
        "--model",
        default="persistent_previous_day",
        help="forecaster the serving bridge (re)trains",
    )
    parser.add_argument(
        "--drift-day",
        type=int,
        default=2,
        help="day index from which the load pattern shifts (provokes a "
        "drift verdict and a retrain; pass a value >= --days for none)",
    )
    parser.add_argument(
        "--drift-factor",
        type=float,
        default=3.0,
        help="multiplier applied to the load from --drift-day on",
    )
    parser.add_argument(
        "--fsync-every",
        type=int,
        default=16,
        help="ingested batches between WAL fsyncs (1 = every batch durable)",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def live_main(argv: list[str]) -> int:
    import numpy as np

    from repro.serving import LiveServingBridge, PredictionService
    from repro.storage.live import LiveIngestError, LiveIngestor
    from repro.timeseries.calendar import (
        DEFAULT_INTERVAL_MINUTES,
        MINUTES_PER_DAY,
        week_index,
    )
    from repro.timeseries.frame import ServerMetadata

    args = build_live_parser().parse_args(argv)
    interval = (
        args.interval_minutes
        if args.interval_minutes is not None
        else DEFAULT_INTERVAL_MINUTES
    )
    if args.servers < 1 or args.days < 1:
        print("--servers and --days must be at least 1", file=sys.stderr)
        return 2
    if args.batch_minutes < 1 or args.batch_minutes > MINUTES_PER_DAY:
        print("--batch-minutes must be between 1 and a day", file=sys.stderr)
        return 2
    if interval < 1 or MINUTES_PER_DAY % interval != 0:
        print("--interval must divide a day (seals land on day boundaries)", file=sys.stderr)
        return 2
    if args.drift_factor <= 0:
        print("--drift-factor must be positive", file=sys.stderr)
        return 2
    if args.fsync_every < 1:
        print("--fsync-every must be at least 1", file=sys.stderr)
        return 2

    lake_dir = args.lake_dir
    temp_holder: tempfile.TemporaryDirectory[str] | None = None
    if lake_dir is None:
        temp_holder = tempfile.TemporaryDirectory(prefix="seagull-live-")
        lake_dir = temp_holder.name

    rng = np.random.default_rng(args.seed)
    metadata = [
        ServerMetadata(server_id=f"srv-{i:03d}", region=args.region)
        for i in range(args.servers)
    ]
    days: list[dict[str, object]] = []
    try:
        store = DataLakeStore(lake_dir)
        service = PredictionService()
        bridge = LiveServingBridge(store, service, model_name=args.model)
        with LiveIngestor(
            store,
            interval_minutes=interval,
            chunk_minutes=MINUTES_PER_DAY,
            fsync_every=args.fsync_every,
        ) as ingestor:
            for day in range(args.days):
                day_start = day * MINUTES_PER_DAY
                key = ExtractKey(region=args.region, week=week_index(day_start))
                factor = args.drift_factor if day >= args.drift_day else 1.0
                rows = batches = 0
                for offset in range(0, MINUTES_PER_DAY, args.batch_minutes):
                    span = min(args.batch_minutes, MINUTES_PER_DAY - offset)
                    ts = np.arange(day_start + offset, day_start + offset + span)
                    minute_of_day = (ts % MINUTES_PER_DAY).astype(np.float64)
                    diurnal = 50.0 + 25.0 * np.sin(
                        2.0 * np.pi * minute_of_day / MINUTES_PER_DAY
                    )
                    for meta in metadata:
                        load = factor * diurnal + rng.normal(0.0, 2.0, size=ts.size)
                        rows += ingestor.ingest(key, meta, ts, np.maximum(load, 0.0))
                        batches += 1
                entry: dict[str, object] = {
                    "day": day,
                    "rows_ingested": rows,
                    "batches": batches,
                    "seals": [],
                }
                for report in ingestor.seal_due(day_start + MINUTES_PER_DAY):
                    event = bridge.on_sealed(report)
                    entry["seals"].append(  # type: ignore[union-attr]
                        {
                            "region": report.region,
                            "week": report.week,
                            "sealed_through": report.sealed_through,
                            "rows_sealed": report.rows_sealed,
                            "generation": report.generation,
                            "tail_rows_remaining": report.tail_rows_remaining,
                            "mean_load": event.summary.mean_load,
                            "drifted": event.verdict.drifted
                            if event.verdict is not None
                            else None,
                            "action": event.action,
                            "active_version": event.active_version,
                        }
                    )
                days.append(entry)
            pending = ingestor.pending_rows()
        generation = store.current_generation()
        health = service.health(args.region)
    except (LiveIngestError, LakeManifestError, PermissionError) as exc:
        print(f"live simulation aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if temp_holder is not None:
            temp_holder.cleanup()

    if args.json:
        payload = {
            "lake_dir": None if temp_holder is not None else lake_dir,
            "region": args.region,
            "interval_minutes": interval,
            "days": days,
            "generation": generation,
            "tail_rows_pending": pending,
            "health": health,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(
        f"Live ingestion: region {args.region!r}, {args.servers} server(s), "
        f"{args.days} day(s), {interval}-minute grid"
    )
    for entry in days:
        print(
            f"  day {entry['day']}: {entry['rows_ingested']} raw row(s) "
            f"in {entry['batches']} batch(es)"
        )
        for seal in entry["seals"]:  # type: ignore[union-attr]
            drift = (
                "baseline"
                if seal["drifted"] is None
                else ("drifted" if seal["drifted"] else "stable")
            )
            promoted = (
                f" -> version {seal['active_version']}"
                if seal["action"] in ("bootstrap", "retrain")
                else ""
            )
            print(
                f"    seal week {seal['week']} through {seal['sealed_through']}: "
                f"{seal['rows_sealed']} grid row(s), generation {seal['generation']}, "
                f"mean load {seal['mean_load']:.1f}, {drift}, "
                f"action {seal['action']}{promoted}"
            )
    print(
        f"Committed generation {generation}; "
        f"{pending} raw row(s) left in the tail"
    )
    print(
        f"Serving health: active version {health['active_version']} "
        f"({health['active_model']}), {health['n_versions']} version(s) deployed"
    )
    return 0


def run_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        servers = tuple(int(part) for part in args.servers.split(",") if part.strip())
    except ValueError:
        print(f"invalid --servers value: {args.servers!r}", file=sys.stderr)
        return 2
    if not servers or any(count <= 0 for count in servers):
        print("--servers needs positive integers", file=sys.stderr)
        return 2
    if args.weeks < 1:
        print("--weeks must be at least 1", file=sys.stderr)
        return 2
    if args.rerun and args.cache_dir is None:
        print("--rerun without --cache-dir would just repeat the work", file=sys.stderr)
        return 2

    spec = default_fleet_spec(
        servers_per_region=servers, weeks=args.horizon_weeks, seed=args.seed
    )
    config = PipelineConfig(model_name=args.model)

    lake_dir = args.lake_dir
    temp_holder: tempfile.TemporaryDirectory[str] | None = None
    if lake_dir is None:
        temp_holder = tempfile.TemporaryDirectory(prefix="seagull-lake-")
        lake_dir = temp_holder.name
    try:
        lake = DataLakeStore(lake_dir)
        keys = populate_lake(lake, spec, weeks=range(args.weeks))
        with FleetOrchestrator(
            lake,
            config=config,
            backend=args.backend,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
        ) as orchestrator:
            report = orchestrator.run(keys)
            rerun_report = orchestrator.run(keys) if args.rerun else None

        if args.json:
            payload = {"run": report.as_dict()}
            if rerun_report is not None:
                payload["rerun"] = rerun_report.as_dict()
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(report.render_text())
            if rerun_report is not None:
                print()
                print("=== warm re-run ===")
                print(rerun_report.render_text())
                if rerun_report.wall_seconds > 0:
                    speedup = report.wall_seconds / rerun_report.wall_seconds
                    print(f"Warm-cache speedup: {speedup:.1f}x")
        return 0 if report.n_failed == 0 else 1
    except LakeManifestError as exc:
        print(f"fleet run aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if temp_holder is not None:
            temp_holder.cleanup()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "convert":
        return convert_main(argv[1:])
    if argv and argv[0] == "manifest":
        return manifest_main(argv[1:])
    if argv and argv[0] == "gc":
        return gc_main(argv[1:])
    if argv and argv[0] == "live":
        return live_main(argv[1:])
    return run_main(argv)
