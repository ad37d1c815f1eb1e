"""Tests for the fleet orchestrator, its report and the CLI."""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.fleet_ops.cli import main as fleet_main
from repro.fleet_ops.orchestrator import FleetOrchestrator
from repro.fleet_ops.report import FleetReport, FleetUnitOutcome
from repro.fleet_ops.synthesis import populate_lake
from repro.parallel.executor import ExecutionBackend
from repro.storage.csv_io import frame_to_csv_text
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.query import ExtractQuery
from repro.telemetry.fleet import default_fleet_spec, extract_spec
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.telemetry.generator import WorkloadGenerator

from tests.helpers import bare_sgx_header, plant_csv, read_frame


@pytest.fixture(scope="module")
def fleet_spec():
    return default_fleet_spec(servers_per_region=(8, 5), weeks=4, seed=13)


def csv_lake(root, spec, weeks) -> DataLakeStore:
    """What an older ``populate_lake`` left behind by default: every
    extract of ``spec`` as a CSV manifest entry, waiting for ``convert``."""
    lake = DataLakeStore(root)
    generator = WorkloadGenerator(spec)
    for region in spec.regions:
        for week in weeks:
            key = ExtractKey(region=region.name, week=week)
            plant_csv(lake, key, generator.generate_weekly_extract(region, week))
    return lake


@pytest.fixture(scope="module")
def fleet_lake(fleet_spec, tmp_path_factory):
    lake = DataLakeStore(tmp_path_factory.mktemp("fleet-lake"))
    populate_lake(lake, fleet_spec, weeks=range(2))
    return lake


class TestExtractSynthesis:
    def test_extract_spec_is_deterministic(self, fleet_spec):
        assert extract_spec(fleet_spec, "region-0", 1) == extract_spec(fleet_spec, "region-0", 1)

    def test_extract_spec_varies_by_region_and_week(self, fleet_spec):
        seeds = {
            extract_spec(fleet_spec, region, week).seed
            for region in ("region-0", "region-1")
            for week in (0, 1, 2)
        }
        assert len(seeds) == 6

    def test_extract_spec_rejects_negative_week(self, fleet_spec):
        with pytest.raises(ValueError):
            extract_spec(fleet_spec, "region-0", -1)

    def test_weekly_extract_content_is_reproducible(self, fleet_spec):
        generator = WorkloadGenerator(fleet_spec)
        first = generator.generate_weekly_extract("region-0", 0)
        second = WorkloadGenerator(fleet_spec).generate_weekly_extract("region-0", 0)
        assert first.content_hash() == second.content_hash()

    def test_weekly_extracts_differ_across_weeks(self, fleet_spec):
        generator = WorkloadGenerator(fleet_spec)
        assert (
            generator.generate_weekly_extract("region-0", 0).content_hash()
            != generator.generate_weekly_extract("region-0", 1).content_hash()
        )

    def test_populate_lake_writes_every_unit(self, fleet_lake, fleet_spec):
        keys = fleet_lake.list_extracts()
        assert len(keys) == 4  # 2 regions x 2 weeks
        for key in keys:
            assert fleet_lake.extract_fingerprint(key)

    def test_populate_lake_skips_existing(self, fleet_spec, tmp_path):
        lake = DataLakeStore(tmp_path)
        first = populate_lake(lake, fleet_spec, weeks=[0])
        fingerprints = {key: lake.extract_fingerprint(key) for key in first}
        second = populate_lake(lake, fleet_spec, weeks=[0])
        assert first == second
        assert fingerprints == {key: lake.extract_fingerprint(key) for key in second}

    def test_populate_lake_regenerates_on_spec_change(self, tmp_path):
        from dataclasses import replace

        spec = default_fleet_spec(servers_per_region=(4,), weeks=4, seed=1)
        lake = DataLakeStore(tmp_path / "lake")
        keys = populate_lake(lake, spec, weeks=[0])
        before = lake.extract_fingerprint(keys[0])
        # Same keys, different seed: stale extracts must be regenerated,
        # not silently reused.
        changed = populate_lake(lake, replace(spec, seed=2), weeks=[0])
        assert changed == keys
        assert lake.extract_fingerprint(keys[0]) != before
        # And with the new spec recorded, a further call is a no-op again.
        populate_lake(lake, replace(spec, seed=2), weeks=[0])
        assert lake.extract_fingerprint(keys[0]) != before


class TestOrchestratorRun:
    @pytest.fixture(scope="class")
    def report(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            return orchestrator.run()

    def test_all_units_processed(self, report):
        assert report.n_units == 4
        assert report.n_succeeded == 4
        assert report.n_failed == 0

    def test_per_region_rollup(self, report):
        summary = report.per_region_summary()
        assert set(summary) == {"region-0", "region-1"}
        assert summary["region-0"]["units"] == 2
        assert summary["region-0"]["n_servers"] == 16  # 8 servers x 2 weekly extracts
        assert summary["region-1"]["n_servers"] == 10

    def test_component_runtimes_present_per_region(self, report):
        table = report.per_region_component_seconds()
        for region_totals in table.values():
            assert region_totals["model_training"] >= 0.0
            assert region_totals["data_ingestion"] > 0.0

    def test_predictability_rollup_counts(self, report):
        rollup = report.predictability_rollup()
        assert rollup["n_servers"] == 26
        assert 0 <= rollup["n_predictable"] <= rollup["n_servers"]

    def test_report_as_dict_is_json_serializable(self, report):
        payload = json.dumps(report.as_dict())
        assert "per_region" in payload

    def test_render_text_mentions_each_region(self, report):
        text = report.render_text()
        assert "region-0" in text and "region-1" in text

    def test_explicit_unit_subset(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run([ExtractKey("region-1", 0)])
        assert report.n_units == 1
        assert report.outcomes[0].region == "region-1"

    def test_missing_extract_fails_unit_not_fleet(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run(
                [ExtractKey("region-0", 0), ExtractKey("region-9", 7)]
            )
        assert report.n_units == 2
        assert report.n_succeeded == 1
        assert report.n_failed == 1
        failed = [o for o in report.outcomes if not o.succeeded][0]
        assert failed.region == "region-9"
        assert failed.abort_reason == "missing input extract for region-9 week 7"
        (incident,) = failed.incidents
        assert incident["source"] == "data_ingestion"
        assert incident["severity"] == "critical"
        assert report.incident_rollup()["by_severity"].get("critical") == 1

    def test_run_id_does_not_depend_on_run_order_or_backend(self, fleet_lake):
        units = [ExtractKey("region-1", 0), ExtractKey("region-0", 1)]
        run_ids = []
        for backend in ("serial", "serial", "threads"):
            with FleetOrchestrator(fleet_lake, PipelineConfig(), backend=backend) as orchestrator:
                run_ids.append([o.run_id for o in orchestrator.run(units).outcomes])
        assert run_ids == [["run-region-0-w1", "run-region-1-w0"]] * 3

    def test_executor_shared_across_runs(self, fleet_lake):
        orchestrator = FleetOrchestrator(fleet_lake, PipelineConfig(), backend="threads")
        try:
            orchestrator.run([ExtractKey("region-0", 0), ExtractKey("region-1", 0)])
            first_pool = orchestrator.executor._pool
            orchestrator.run([ExtractKey("region-0", 0), ExtractKey("region-1", 0)])
            assert orchestrator.executor._pool is first_pool
        finally:
            orchestrator.close()
        assert orchestrator.executor._closed

    def test_owned_parallel_executor_sized_by_fleet_heuristic(self, fleet_lake):
        with FleetOrchestrator(
            fleet_lake, PipelineConfig(), backend="threads"
        ) as orchestrator:
            orchestrator.run([ExtractKey("region-0", 0), ExtractKey("region-1", 0)])
            # min(units, usable CPUs, cap) can never exceed the unit count.
            assert orchestrator.executor.n_workers <= 2


class TestOrchestratorCaching:
    @pytest.fixture()
    def disk_lake(self, tmp_path, fleet_spec):
        lake = DataLakeStore(tmp_path / "lake")
        populate_lake(lake, fleet_spec, weeks=range(2))
        return lake

    def test_warm_rerun_served_from_unit_cache(self, disk_lake, tmp_path):
        cache_dir = tmp_path / "cache"
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=cache_dir
        ) as orchestrator:
            cold = orchestrator.run()
            warm = orchestrator.run()
        assert cold.cache_summary()["unit_hits"] == 0
        assert cold.cache_summary()["stage_misses"] == 8  # 2 stages x 4 units
        assert warm.cache_summary()["unit_hits"] == 4
        assert all(outcome.from_unit_cache for outcome in warm.outcomes)

    def test_warm_outcomes_identical_to_cold(self, disk_lake, tmp_path):
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=tmp_path / "cache"
        ) as orchestrator:
            cold = orchestrator.run()
            warm = orchestrator.run()
        for before, after in zip(cold.outcomes, warm.outcomes, strict=True):
            assert after.region == before.region and after.week == before.week
            assert after.summary == before.summary
            assert after.n_predictable == before.n_predictable
            assert after.n_predictions == before.n_predictions

    def test_warm_outcomes_equal_cold_as_json(self, disk_lake, tmp_path):
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=tmp_path / "cache"
        ) as orchestrator:
            cold = orchestrator.run()
            warm = orchestrator.run()

        def canonical(outcome):
            payload = outcome.to_payload()
            for name in ("wall_seconds", "cache_events"):
                del payload[name]
            return json.dumps(payload, sort_keys=True)

        assert all(outcome.from_unit_cache for outcome in warm.outcomes)
        assert [canonical(o) for o in warm.outcomes] == [canonical(o) for o in cold.outcomes]

    def test_changed_extract_recomputes_that_unit_only(self, disk_lake, tmp_path, fleet_spec):
        cache_dir = tmp_path / "cache"
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=cache_dir
        ) as orchestrator:
            orchestrator.run()
            # Overwrite one extract with different content.
            changed_key = ExtractKey("region-0", 0)
            frame = WorkloadGenerator(fleet_spec).generate_weekly_extract("region-0", 3)
            disk_lake.write_extract(changed_key, frame)
            second = orchestrator.run()
        assert second.cache_summary()["unit_hits"] == 3
        recomputed = [o for o in second.outcomes if not o.from_unit_cache]
        assert [(o.region, o.week) for o in recomputed] == [("region-0", 0)]

    def test_config_change_reuses_feature_stage(self, disk_lake, tmp_path):
        cache_dir = tmp_path / "cache"
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=cache_dir
        ) as orchestrator:
            orchestrator.run()
        with FleetOrchestrator(
            disk_lake,
            PipelineConfig(model_name="persistent_previous_equivalent_day"),
            cache_dir=cache_dir,
        ) as orchestrator:
            report = orchestrator.run()
        # New model: whole-unit outcomes are invalid, but the frame content
        # did not change, so the feature stage is served from cache.
        assert report.cache_summary()["unit_hits"] == 0
        for outcome in report.outcomes:
            assert outcome.cache_events["features"] == "hit"
            assert outcome.cache_events["model"] == "miss"

    def test_corrupt_unit_cache_file_recovers(self, disk_lake, tmp_path):
        cache_dir = tmp_path / "cache"
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=cache_dir
        ) as orchestrator:
            orchestrator.run([ExtractKey("region-0", 0)])
            (entry,) = (cache_dir / "unit_outcome").iterdir()
            orchestrator.run()
            entry.write_text("not json at all")
            report = orchestrator.run()
        assert report.n_failed == 0
        # The corrupted unit recomputed; the others were cache hits.
        assert report.cache_summary()["unit_hits"] == 3

    def test_units_storing_identical_bytes_keep_their_own_outcomes(self, tmp_path, fleet_spec):
        # A replicated or backfilled extract: same stored bytes, hence the
        # same fingerprint, under two keys of one shared cache directory.
        lake = DataLakeStore(tmp_path / "lake")
        frame = WorkloadGenerator(fleet_spec).generate_weekly_extract("region-0", 3)
        units = [ExtractKey("region-0", 3), ExtractKey("region-0", 7)]
        for key in units:
            lake.write_extract(key, frame)
        assert lake.extract_fingerprint(units[0]) == lake.extract_fingerprint(units[1])
        with FleetOrchestrator(lake, PipelineConfig(), cache_dir=tmp_path / "cache") as orchestrator:
            cold = orchestrator.run()
            warm = orchestrator.run()
        for report, served_from_cache in ((cold, False), (warm, True)):
            assert [(o.region, o.week, o.from_unit_cache) for o in report.outcomes] == [
                ("region-0", 3, served_from_cache),
                ("region-0", 7, served_from_cache),
            ]
        # The stage entries underneath depend on the frame alone and dedupe.
        assert cold.outcomes[1].cache_events["features"] == "hit"

    def test_executor_backend_change_keeps_unit_cache(self, disk_lake, tmp_path):
        cache_dir = tmp_path / "cache"
        units = [ExtractKey("region-0", 0)]
        with FleetOrchestrator(
            disk_lake, PipelineConfig(), cache_dir=cache_dir
        ) as orchestrator:
            orchestrator.run(units)
        # Execution knobs change how a unit is computed, not what it
        # computes: the cached outcome must still be served.
        with FleetOrchestrator(
            disk_lake,
            PipelineConfig(executor_backend=ExecutionBackend.THREADS, n_workers=2),
            cache_dir=cache_dir,
        ) as orchestrator:
            warm = orchestrator.run(units)
        assert warm.cache_summary()["unit_hits"] == 1

    def test_processes_backend_with_cache(self, disk_lake, tmp_path):
        cache_dir = tmp_path / "cache"
        units = [ExtractKey("region-0", 0), ExtractKey("region-1", 0)]
        with FleetOrchestrator(
            disk_lake,
            PipelineConfig(),
            backend="processes",
            n_workers=2,
            cache_dir=cache_dir,
        ) as orchestrator:
            cold = orchestrator.run(units)
            warm = orchestrator.run(units)
        assert cold.n_succeeded == 2
        assert warm.cache_summary()["unit_hits"] == 2


class TestUnitOutcomePayload:
    def test_roundtrip(self):
        outcome = FleetUnitOutcome(
            region="region-0",
            week=1,
            run_id="run-1",
            succeeded=True,
            abort_reason="",
            timings={"model_training": 1.5},
            summary={"pct_windows_correct": 80.0},
            n_servers=10,
            n_predictions=7,
            n_predictable=5,
            incidents=[{"severity": "warning", "source": "x", "message": "m", "region": "r"}],
            cache_events={"features": "miss"},
            wall_seconds=2.0,
        )
        restored = FleetUnitOutcome.from_payload(outcome.to_payload())
        assert restored == outcome

    def test_summary_keeps_its_types_through_json(self):
        summary = {"n_servers": 3, "n_evaluable": 2, "pct_windows_correct": 50.0}
        outcome = FleetUnitOutcome(
            region="r", week=0, run_id="run-r-w0", succeeded=True, abort_reason="",
            timings={}, summary=summary, n_servers=3, n_predictions=2, n_predictable=1,
            incidents=[], cache_events={}, wall_seconds=1.0,
        )
        restored = FleetUnitOutcome.from_payload(json.loads(json.dumps(outcome.to_payload())))
        assert json.dumps(restored.to_payload(), sort_keys=True) == json.dumps(
            outcome.to_payload(), sort_keys=True
        )
        assert type(restored.summary["n_servers"]) is int

    def test_cache_hit_view_keeps_compute_timings(self):
        outcome = FleetUnitOutcome(
            region="r",
            week=0,
            run_id="run",
            succeeded=True,
            abort_reason="",
            timings={"model_training": 3.0},
            summary=None,
            n_servers=1,
            n_predictions=1,
            n_predictable=1,
            incidents=[],
            cache_events={},
            wall_seconds=3.5,
        )
        hit = outcome.as_cache_hit(0.01)
        assert hit.from_unit_cache
        assert hit.timings["model_training"] == 3.0
        assert hit.wall_seconds == 0.01


class TestFleetReportEdgeCases:
    def test_empty_report(self):
        report = FleetReport(outcomes=[], backend="serial", n_workers=1, wall_seconds=0.0)
        assert report.n_units == 0
        assert report.predictability_rollup()["pct_predictable"] == 0.0
        assert report.render_text()


class TestColumnarFleetRuns:
    def test_sgx_lake_matches_csv_lake(self, fleet_spec, tmp_path):
        from repro.storage.migrate import adopt_legacy_files

        imported = csv_lake(tmp_path / "csv", fleet_spec, weeks=[0])
        adopt_legacy_files(imported.manifest)
        sgx_lake = DataLakeStore(tmp_path / "sgx")
        populate_lake(sgx_lake, fleet_spec, weeks=[0])
        with FleetOrchestrator(imported, PipelineConfig()) as orchestrator:
            from_csv = orchestrator.run()
        with FleetOrchestrator(sgx_lake, PipelineConfig()) as orchestrator:
            from_sgx = orchestrator.run()
        assert from_sgx.n_succeeded == from_csv.n_succeeded == 2
        for csv_outcome, sgx_outcome in zip(from_csv.outcomes, from_sgx.outcomes, strict=True):
            assert sgx_outcome.summary == csv_outcome.summary
            assert sgx_outcome.n_predictable == csv_outcome.n_predictable

    def test_sgx_disk_lake_with_process_backend(self, tmp_path, fleet_spec):
        lake = DataLakeStore(tmp_path / "lake", write_format="sgx")
        populate_lake(lake, fleet_spec, weeks=[0])
        with FleetOrchestrator(
            lake, PipelineConfig(), backend="processes", n_workers=2
        ) as orchestrator:
            report = orchestrator.run()
        assert report.n_failed == 0

    def test_damaged_extract_fails_only_its_unit(self, fleet_spec, tmp_path):
        # Nothing answers for a damaged segment: it fails exactly its
        # unit, carrying the lake's message (which extract, which file,
        # what to do), and a re-extract mends it.
        lake = DataLakeStore(tmp_path)
        damaged_key, *healthy = populate_lake(lake, fleet_spec, weeks=[0, 1])
        frame = read_frame(lake, damaged_key, interval_minutes=None)
        segment = lake.extract_path(damaged_key)
        damaged = bytearray(segment.read_bytes())
        damaged[-3] ^= 0xFF
        segment.write_bytes(bytes(damaged))  # simulates out-of-band disk damage

        with FleetOrchestrator(lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run()
            reasons = {
                ExtractKey(o.region, o.week): o.abort_reason
                for o in report.outcomes
                if not o.succeeded
            }
            assert set(reasons) == {damaged_key}
            assert report.n_succeeded == len(healthy) == 3
            relpath = segment.relative_to(tmp_path).as_posix()
            assert relpath in reasons[damaged_key] and "checksum mismatch" in reasons[damaged_key]
            assert "re-extract it or restore that file" in reasons[damaged_key]
            assert report.outcomes[0].incidents[0]["message"] == reasons[damaged_key]

            lake.write_extract(damaged_key, frame)
            assert orchestrator.run().n_failed == 0

    def test_convert_refreshes_fingerprints_but_keeps_stage_cache(
        self, tmp_path, fleet_spec
    ):
        """Re-chunking the lake changes stored bytes (new unit fingerprints)
        while frame content -- and so every stage-cache key -- is unchanged."""
        from repro.storage.migrate import convert_lake

        lake = DataLakeStore(tmp_path / "lake")
        populate_lake(lake, fleet_spec, weeks=[0])
        cache_dir = tmp_path / "cache"
        with FleetOrchestrator(
            lake, PipelineConfig(), cache_dir=cache_dir
        ) as orchestrator:
            orchestrator.run()
            assert convert_lake(lake, chunk_minutes=720).n_converted == 2
            report = orchestrator.run()
        assert report.cache_summary()["unit_hits"] == 0
        for outcome in report.outcomes:
            assert outcome.cache_events["features"] == "hit"
            assert outcome.cache_events["model"] == "hit"


class TestConvertCli:
    SPEC = default_fleet_spec(servers_per_region=(4, 3), weeks=4, seed=5)

    def _csv_lake(self, tmp_path):
        return csv_lake(tmp_path / "lake", self.SPEC, weeks=range(2))

    def test_convert_reports_rollup(self, capsys, tmp_path):
        lake = self._csv_lake(tmp_path)
        code = fleet_main(["convert", "--lake-dir", str(lake.root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Adopted 4 file(s)" in out and "bytes" in out
        assert "0 extract(s) converted, 4 already current" in out
        assert lake.manifest.current().unimported == ()

    def test_convert_delete_source_migrates_in_place(self, capsys, tmp_path):
        # One adopt transaction imports every CSV entry and retires it: no
        # flag, no second pass, no dual-format middle state.
        lake = self._csv_lake(tmp_path)
        generation = lake.manifest.head().generation
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        assert lake.current_generation() == generation + 1
        generator = WorkloadGenerator(self.SPEC)
        for key in lake.list_extracts():
            planted = generator.generate_weekly_extract(key.region, key.week)
            assert read_frame(lake, key).content_hash() == planted.content_hash()
        for removed in ("--delete-source", "--to=csv"):
            with pytest.raises(SystemExit) as excinfo:
                fleet_main(["convert", "--lake-dir", str(lake.root), removed])
            assert excinfo.value.code == 2

    def test_convert_back_to_csv_is_lossless(self, capsys, tmp_path):
        # CSV text in, CSV text out: what the export edge hands back is
        # byte for byte what the import edge was given.
        lake = self._csv_lake(tmp_path)
        planted = {
            ExtractKey(e.region, e.week): (lake.root / e.relpath).read_bytes()
            for e in lake.manifest.head().unimported
        }
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        assert len(planted) == 4
        for key, text in planted.items():
            whole = ExtractQuery.for_key(key, interval_minutes=None)
            exported = frame_to_csv_text(lake.query(whole, include_tail=False).frame)
            identical = exported.encode("utf-8") == text
            assert identical, key  # not ``assert a == b``: a diff of megabytes never ends

    def test_convert_is_idempotent(self, capsys, tmp_path):
        lake = self._csv_lake(tmp_path)
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        capsys.readouterr()
        generation = lake.current_generation()
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        assert "0 extract(s) converted, 4 already current" in capsys.readouterr().out
        assert lake.current_generation() == generation  # nothing published

    def test_convert_json_rollup(self, capsys, tmp_path):
        lake = self._csv_lake(tmp_path)
        code = fleet_main(["convert", "--lake-dir", str(lake.root), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_converted"] == 0 and payload["n_skipped"] == 4
        csv_bytes = sum(adopted["bytes"] for adopted in payload["adopted"])
        sgx_bytes = sum(lake.extract_size_bytes(key) for key in lake.list_extracts())
        assert len(payload["adopted"]) == 4 and sgx_bytes < csv_bytes  # columnar is smaller

    def _dual_lake(self, tmp_path):
        """What an older ``convert`` without ``--delete-source`` left:
        every key's segment with the same rows as a CSV entry beside it."""
        lake = DataLakeStore(tmp_path / "lake")
        keys = populate_lake(lake, self.SPEC, weeks=range(2))
        frames = {key: read_frame(lake, key, interval_minutes=None) for key in keys}
        for key, frame in frames.items():
            plant_csv(lake, key, frame)
        return lake

    def test_delete_source_cleans_up_dual_format_lake(self, capsys, tmp_path):
        # Every key is already .sgx, and the CSV entries beside them still
        # have to go -- after the same lossless check.
        lake = self._dual_lake(tmp_path)
        segments = lake.manifest.head().segments
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        assert lake.manifest.current().segments == segments
        assert lake.manifest.current().unimported == ()
        # The run retired entries: it must say so, not read like a no-op.
        out = capsys.readouterr().out
        assert "0 extract(s) converted, 4 already current" in out
        assert "Adopted 4 file(s)" in out

    def test_delete_source_refuses_on_diverged_copies(self, tmp_path):
        from repro.storage.manifest import LakeNotAdoptedError
        from repro.storage.migrate import ConversionVerificationError, adopt_legacy_files

        lake = DataLakeStore(tmp_path / "lake")
        key, *_others = populate_lake(lake, self.SPEC, weeks=[0])
        # A CSV entry that diverges from the segment it sits beside.
        frame = read_frame(lake, key, interval_minutes=None)
        frame = frame.select(frame.server_ids()[1:])
        plant_csv(lake, key, frame)
        generation = lake.manifest.head().generation
        with pytest.raises(ConversionVerificationError, match="disagrees"):
            adopt_legacy_files(lake.manifest)
        assert lake.manifest.current().generation == generation  # nothing retired
        with pytest.raises(LakeNotAdoptedError):
            DataLakeStore(lake.root)

    def test_convert_heals_pre_v4_sgx_from_its_csv_sibling(self, tmp_path):
        # A pre-v4 .sgx is unreadable to this reader; with a CSV entry
        # beside it adoption re-imports from the CSV and retires it.
        from repro.storage.migrate import adopt_legacy_files

        lake = DataLakeStore(tmp_path / "lake")
        key, *_others = populate_lake(lake, self.SPEC, weeks=[0])
        frame = read_frame(lake, key, interval_minutes=None)
        lake.write_extract_bytes(key, bare_sgx_header(1))
        plant_csv(lake, key, frame)
        adopted = adopt_legacy_files(lake.manifest)
        assert [relpath[-4:] for relpath, _size in adopted] == [".csv"]
        assert read_frame(lake, key, interval_minutes=None).content_hash() == frame.content_hash()

    def test_convert_chunk_minutes_rechunks_already_current_lake(self, capsys, tmp_path):
        from repro.storage.columnar import sgx_summary

        lake = self._csv_lake(tmp_path)
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        key = lake.list_extracts()[0]
        per_day = sgx_summary(lake.extract_path(key).read_bytes())["n_chunks"]
        capsys.readouterr()
        code = fleet_main(
            ["convert", "--lake-dir", str(lake.root), "--chunk-minutes", "720"]
        )
        assert code == 0
        assert "4 extract(s) converted" in capsys.readouterr().out
        assert sgx_summary(lake.extract_path(key).read_bytes())["n_chunks"] > per_day
        # Re-running under the same policy finds byte-identical encodings.
        capsys.readouterr()
        assert fleet_main(
            ["convert", "--lake-dir", str(lake.root), "--chunk-minutes", "720"]
        ) == 0
        assert "0 extract(s) converted, 4 already current" in capsys.readouterr().out

    def test_convert_negative_chunk_minutes_rejected(self, capsys, tmp_path):
        lake = self._csv_lake(tmp_path)
        code = fleet_main(
            ["convert", "--lake-dir", str(lake.root), "--chunk-minutes", "-3"]
        )
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_convert_missing_lake_dir_fails_without_creating_it(self, capsys, tmp_path):
        missing = tmp_path / "no-such-lake"
        assert fleet_main(["convert", "--lake-dir", str(missing)]) == 2
        assert not missing.exists()
        assert "does not exist" in capsys.readouterr().err

    def test_convert_unknown_region_fails(self, capsys, tmp_path):
        lake = self._csv_lake(tmp_path)
        code = fleet_main(
            ["convert", "--lake-dir", str(lake.root), "--region", "regoin-0"]
        )
        assert code == 2
        assert "has no partition" in capsys.readouterr().err

    def _corrupt_sgx_file(self, lake, key):
        damaged = bytearray(lake.extract_path(key).read_bytes())
        damaged[-3] ^= 0xFF
        lake.extract_path(key).write_bytes(bytes(damaged))  # repro: allow[manifest-boundary] simulating out-of-band disk damage

    def test_reconverts_damaged_target_from_healthy_source(self, tmp_path):
        from repro.storage.migrate import adopt_legacy_files

        lake = DataLakeStore(tmp_path / "lake")
        key, *_others = populate_lake(lake, self.SPEC, weeks=[0])
        expected = read_frame(lake, key, interval_minutes=None)
        self._corrupt_sgx_file(lake, key)
        plant_csv(lake, key, expected)
        # Adoption must not trust the damaged .sgx beside the CSV entry.
        adopt_legacy_files(lake.manifest)
        adopted = read_frame(lake, key, interval_minutes=None)
        assert adopted.content_hash() == expected.content_hash()

    def test_damaged_target_without_source_aborts_cleanly(self, capsys, tmp_path):
        from repro.storage.migrate import ConversionVerificationError, convert_lake

        lake = self._csv_lake(tmp_path)
        assert fleet_main(["convert", "--lake-dir", str(lake.root)]) == 0
        key = lake.list_extracts()[0]
        self._corrupt_sgx_file(lake, key)
        # Library: typed error naming the problem.
        with pytest.raises(ConversionVerificationError, match="unreadable"):
            convert_lake(lake)
        # CLI: documented exit code and message, not a traceback.
        code = fleet_main(["convert", "--lake-dir", str(lake.root)])
        assert code == 1
        assert "conversion aborted" in capsys.readouterr().err

    def test_convert_preserves_nondefault_interval(self, tmp_path):
        from repro.storage.migrate import convert_lake
        from repro.timeseries.frame import LoadFrame, ServerMetadata
        from tests.helpers import make_series

        lake = DataLakeStore(tmp_path / "lake")
        frame = LoadFrame(10)
        frame.add_server(
            ServerMetadata(server_id="s0", region="r0"),
            make_series([1.0, 2.0, 3.0], interval=10),
        )
        key = ExtractKey("r0", 0)
        lake.write_extract(key, frame)
        # Neither an idempotent re-convert nor a forced re-chunk may
        # rewrite the recorded 10-minute interval to the 5-minute default.
        convert_lake(lake)
        assert read_frame(lake, key, interval_minutes=None).interval_minutes == 10
        assert convert_lake(lake, chunk_minutes=10).n_converted == 1
        assert read_frame(lake, key, interval_minutes=None).content_hash() == frame.content_hash()

    def test_convert_single_region(self, capsys, tmp_path):
        # Adoption takes in the whole lake (no store opens it before);
        # the health check is what ``--region`` narrows.
        lake = self._csv_lake(tmp_path)
        code = fleet_main(
            ["convert", "--lake-dir", str(lake.root), "--region", "region-1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["adopted"]) == 4
        assert {extract["region"] for extract in payload["extracts"]} == {"region-1"}


class TestQueryHandoff:
    """Workers receive (lake handle, ExtractQuery) -- never extract bytes."""

    def _captured_tasks(self, monkeypatch, lake, units=None):
        import repro.fleet_ops.orchestrator as orchestrator_module

        captured = []
        real_execute = orchestrator_module._execute_unit

        def spy(task):
            captured.append(task)
            return real_execute(task)

        monkeypatch.setattr(orchestrator_module, "_execute_unit", spy)
        with FleetOrchestrator(lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run(units)
            return report, captured, orchestrator

    def test_tasks_carry_handle_and_query_not_payloads(self, monkeypatch, fleet_lake):
        import pickle

        report, tasks, _orch = self._captured_tasks(monkeypatch, fleet_lake)
        assert report.n_failed == 0
        assert len(tasks) == 4
        extract_bytes = sum(
            fleet_lake.extract_size_bytes(key) for key in fleet_lake.list_extracts()
        )
        for task in tasks:
            assert not hasattr(task, "payload")
            assert isinstance(task.query, ExtractQuery)
            assert task.query.regions == (task.region,)
            assert task.query.weeks == (task.week,)
            assert task.lake_root is not None
            # The task is orders of magnitude smaller than the extract it
            # describes: payload bytes stay out of the executor entirely.
            assert len(pickle.dumps(task)) < extract_bytes // 20

    def test_tasks_point_at_the_lake_root_and_generation(self, monkeypatch, fleet_spec, tmp_path):
        lake = DataLakeStore(tmp_path, write_format="sgx")
        populate_lake(lake, fleet_spec, weeks=[0])
        report, tasks, _orch = self._captured_tasks(monkeypatch, lake)
        assert report.n_failed == 0
        assert all(task.lake_root == str(lake.root) for task in tasks)
        assert all(task.generation == lake.current_generation() for task in tasks)
        # close() (already called) owns no directory: the lake is untouched.
        assert lake.list_extracts()

    def test_warm_rerun_hits_the_unit_cache_for_every_unit(self, tmp_path, fleet_spec):
        # The unit-outcome cache is keyed by the stored-bytes fingerprint
        # the worker reads through its own handle.
        lake = DataLakeStore(tmp_path / "lake")
        populate_lake(lake, fleet_spec, weeks=[0])
        cache_dir = tmp_path / "cache"
        with FleetOrchestrator(lake, PipelineConfig(), cache_dir=cache_dir) as orchestrator:
            cold = orchestrator.run()
            warm = orchestrator.run()
        assert cold.cache_summary()["unit_hits"] == 0
        assert warm.cache_summary()["unit_hits"] == 2

    def test_runs_never_write_to_the_lake(self, fleet_spec, tmp_path):
        # Workers only read: no segment is rewritten and no generation is
        # published, however many times the fleet runs.
        lake = DataLakeStore(tmp_path, write_format="sgx")
        keys = populate_lake(lake, fleet_spec, weeks=[0])
        generation = lake.current_generation()
        before = {path: path.stat().st_mtime_ns for path in tmp_path.rglob("extract_*")}
        assert before
        with FleetOrchestrator(lake, PipelineConfig()) as orchestrator:
            orchestrator.run(keys)
            orchestrator.run(keys)
        after = {path: path.stat().st_mtime_ns for path in tmp_path.rglob("extract_*")}
        assert after == before
        assert lake.current_generation() == generation

    def test_write_between_runs_is_seen_by_the_second_run(self, fleet_spec, tmp_path):
        lake = DataLakeStore(tmp_path)
        keys = populate_lake(lake, fleet_spec, weeks=[0])
        with FleetOrchestrator(lake, PipelineConfig()) as orchestrator:
            first = orchestrator.run([keys[0]])
            # Each run() pins the generation current when it starts, so a
            # write between two runs of one orchestrator is not stale.
            frame = WorkloadGenerator(fleet_spec).generate_weekly_extract(
                keys[0].region, 3
            )
            lake.write_extract(keys[0], frame)
            second = orchestrator.run([keys[0]])
        assert first.n_failed == second.n_failed == 0
        assert second.lake_generation == first.lake_generation + 1
        assert second.outcomes[0].n_servers == len(frame)


class TestScanRollup:
    """Satellite: per-unit ScanStats roll into FleetReport."""

    def test_outcomes_carry_scan_stats(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run()
        for outcome in report.outcomes:
            assert outcome.scan["extracts_scanned"] == 1
            assert outcome.scan["rows"] > 0
            assert outcome.scan["servers_seen"] == outcome.n_servers

    def test_scan_rollup_sums_units(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run()
        rollup = report.scan_rollup()
        assert rollup["extracts_scanned"] == 4
        assert rollup["rows"] == sum(o.scan["rows"] for o in report.outcomes)
        assert 0.0 < rollup["verified_fraction"] <= 1.0
        assert rollup["servers_seen"] == 26

    def test_scan_rollup_rendered_and_serialized(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run()
        assert "Scan:" in report.render_text()
        assert "payload bytes CRC-verified" in report.render_text()
        assert "scan" in report.as_dict()
        json.dumps(report.as_dict())  # stays JSON-serializable

    def test_scan_stats_survive_unit_cache_roundtrip(self, tmp_path, fleet_spec):
        lake = DataLakeStore(tmp_path / "lake")
        populate_lake(lake, fleet_spec, weeks=[0])
        with FleetOrchestrator(
            lake, PipelineConfig(), cache_dir=tmp_path / "cache"
        ) as orchestrator:
            cold = orchestrator.run()
            warm = orchestrator.run()
        for before, after in zip(cold.outcomes, warm.outcomes, strict=True):
            assert after.from_unit_cache
            assert after.scan == before.scan

    def test_failed_unit_has_empty_scan(self, fleet_lake):
        with FleetOrchestrator(fleet_lake, PipelineConfig()) as orchestrator:
            report = orchestrator.run([ExtractKey("region-9", 7)])
        assert report.outcomes[0].scan == {}
        assert report.scan_rollup()["extracts_scanned"] == 0


class TestFleetCli:
    def test_cli_runs_and_reports(self, capsys, tmp_path):
        code = fleet_main(
            [
                "--servers",
                "6,4",
                "--weeks",
                "1",
                "--lake-dir",
                str(tmp_path / "lake"),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet run: 2 units" in out

    def test_cli_json_output(self, capsys, tmp_path):
        code = fleet_main(
            [
                "--servers",
                "5",
                "--weeks",
                "1",
                "--json",
                "--lake-dir",
                str(tmp_path / "lake"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["n_units"] == 1

    def test_cli_rerun_requires_cache_dir(self, capsys):
        assert fleet_main(["--rerun"]) == 2

    def test_cli_rejects_bad_servers(self, capsys):
        assert fleet_main(["--servers", "nope"]) == 2
        assert fleet_main(["--servers", "0"]) == 2

    def test_cli_rerun_hits_cache(self, capsys, tmp_path):
        code = fleet_main(
            [
                "--servers",
                "5",
                "--weeks",
                "1",
                "--rerun",
                "--lake-dir",
                str(tmp_path / "lake"),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "warm re-run" in out
        assert "Warm-cache speedup" in out


class TestLiveCli:
    LIVE_ARGS = [
        "live",
        "--servers",
        "2",
        "--days",
        "2",
        "--batch-minutes",
        "360",
        "--drift-day",
        "1",
    ]

    def test_live_runs_and_reports(self, capsys, tmp_path):
        lake_dir = tmp_path / "lake"
        code = fleet_main([*self.LIVE_ARGS, "--lake-dir", str(lake_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "action bootstrap -> version 1" in out
        assert "drifted, action retrain -> version 2" in out
        assert "Committed generation 2" in out
        assert "Serving health: active version 2" in out
        # The lake the simulation built persists when a dir was given.
        assert (lake_dir / "_manifest" / "MANIFEST.json").exists()

    def test_live_json_output(self, capsys):
        code = fleet_main([*self.LIVE_ARGS, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lake_dir"] is None  # temp lake, already cleaned up
        assert payload["generation"] == 2
        assert payload["tail_rows_pending"] == 0
        assert [d["day"] for d in payload["days"]] == [0, 1]
        (first,), (second,) = (d["seals"] for d in payload["days"])
        assert first["action"] == "bootstrap" and first["drifted"] is None
        assert second["action"] == "retrain" and second["drifted"] is True
        assert second["rows_sealed"] == 2 * MINUTES_PER_DAY // 5
        assert payload["health"]["active_version"] == 2

    def test_live_rejects_bad_flags(self, capsys):
        assert fleet_main(["live", "--days", "0"]) == 2
        assert fleet_main(["live", "--interval", "7"]) == 2
        assert fleet_main(["live", "--batch-minutes", "0"]) == 2
        assert fleet_main(["live", "--fsync-every", "0"]) == 2
        assert fleet_main(["live", "--drift-factor", "-1"]) == 2
