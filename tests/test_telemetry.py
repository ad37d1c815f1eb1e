"""Unit tests for the synthetic telemetry substrate."""

import numpy as np
import pytest

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.telemetry.extraction import LoadExtractionQuery
from repro.telemetry.fleet import (
    FLEET_CLASS_MIX,
    FleetSpec,
    RegionSpec,
    ServerClass,
    default_fleet_spec,
    sql_database_fleet_spec,
)
from repro.telemetry.generator import (
    _PREDICTABLE_NOISE,
    WorkloadGenerator,
    _smooth_daily_shape,
    daily_trace,
    stable_trace,
    unstable_trace,
    weekly_trace,
)
from repro.telemetry.raw_store import RawTelemetryStore
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK

from tests.helpers import POINTS_PER_DAY, read_frame


class TestFleetSpec:
    def test_default_mix_sums_to_one(self):
        assert sum(FLEET_CLASS_MIX.values()) == pytest.approx(1.0)

    def test_default_fleet_spec_regions(self):
        spec = default_fleet_spec()
        assert len(spec.regions) == 4
        assert sum(region.n_servers for region in spec.regions) == 750
        assert spec.region_names() == [f"region-{i}" for i in range(4)]

    def test_region_lookup(self):
        spec = default_fleet_spec()
        assert spec.region("region-1").n_servers == 200
        with pytest.raises(KeyError):
            spec.region("nowhere")

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(
                regions=(RegionSpec("r", 1),),
                class_mix={ServerClass.STABLE: 0.4},
            )

    def test_invalid_region_rejected(self):
        with pytest.raises(ValueError):
            RegionSpec(name="", n_servers=1)
        with pytest.raises(ValueError):
            RegionSpec(name="r", n_servers=-1)

    def test_sql_fleet_spec(self):
        spec = sql_database_fleet_spec(n_databases=100)
        assert spec.interval_minutes == 15
        assert sum(region.n_servers for region in spec.regions) == 100
        assert spec.engine_mix == {"sql": 1.0}


class TestTraceGenerators:
    def test_stable_trace_variance_small(self):
        rng = np.random.default_rng(0)
        values = stable_trace(rng, 1000, base_load=20.0)
        assert abs(values.mean() - 20.0) < 1.0
        assert values.std() < 3.0

    def test_daily_trace_repeats(self):
        n = 2 * POINTS_PER_DAY
        values = daily_trace(np.random.default_rng(0), n, POINTS_PER_DAY, 10.0, 30.0)
        # Replay the generator's draws: the daily shape, then the noise.
        rng = np.random.default_rng(0)
        shape = _smooth_daily_shape(rng, POINTS_PER_DAY)
        noise = rng.normal(0.0, _PREDICTABLE_NOISE, n)
        np.testing.assert_allclose(values, 10.0 + 30.0 * np.tile(shape, 2) + noise)

    def test_weekly_trace_weekend_differs(self):
        n = 7 * POINTS_PER_DAY
        values = weekly_trace(np.random.default_rng(0), n, POINTS_PER_DAY, 10.0, 40.0)
        rng = np.random.default_rng(0)
        weekday, saturday, sunday = (_smooth_daily_shape(rng, POINTS_PER_DAY) for _ in range(3))
        weekend_amplitude = 40.0 * rng.uniform(0.2, 0.5)
        noise = rng.normal(0.0, _PREDICTABLE_NOISE, n)
        week = [40.0 * weekday] * 5 + [weekend_amplitude * saturday, weekend_amplitude * sunday]
        np.testing.assert_allclose(values, 10.0 + np.concatenate(week) + noise)
        assert not np.allclose(week[0], week[5])  # Saturday is not a weekday

    def test_unstable_trace_is_volatile(self):
        rng = np.random.default_rng(0)
        values = unstable_trace(rng, 7 * POINTS_PER_DAY, POINTS_PER_DAY, 30.0, 30.0)
        assert values.std() > 5.0


class TestWorkloadGenerator:
    def test_generate_region_counts(self, small_fleet_spec):
        generator = WorkloadGenerator(small_fleet_spec)
        frame = generator.generate_region("region-1")
        assert len(frame) == 15
        assert all(metadata.region == "region-1" for _, metadata, _ in frame.items())

    def test_generate_fleet_merges_regions(self, small_fleet):
        assert len(small_fleet) == 45
        assert small_fleet.regions() == ["region-0", "region-1"]

    def test_values_within_cpu_range(self, small_fleet):
        for _, _, series in small_fleet.items():
            if series.is_empty:
                continue
            assert series.minimum() >= 0.0
            assert series.maximum() <= 100.0

    def test_short_lived_servers_are_short(self, small_fleet):
        for _server_id, metadata, series in small_fleet.items():
            if metadata.true_class == "short_lived":
                assert series.span_minutes < 21 * MINUTES_PER_DAY

    def test_long_lived_servers_cover_horizon(self, small_fleet):
        for _server_id, metadata, series in small_fleet.items():
            if metadata.true_class != "short_lived":
                assert series.span_minutes == 28 * MINUTES_PER_DAY

    def test_default_backup_on_last_day(self, small_fleet, small_fleet_spec):
        last_day_start = (small_fleet_spec.weeks * 7 - 1) * 1440
        for _, metadata, _ in small_fleet.items():
            assert metadata.default_backup_start >= last_day_start
            assert metadata.default_backup_end <= last_day_start + 1440

    def test_deterministic_given_seed(self):
        spec = default_fleet_spec(servers_per_region=(5,), weeks=2, seed=99)
        first = WorkloadGenerator(spec).generate_region("region-0")
        second = WorkloadGenerator(spec).generate_region("region-0")
        for sid in first.server_ids():
            assert first.series(sid) == second.series(sid)

    def test_true_class_recorded_in_metadata(self, small_fleet):
        classes = {metadata.true_class for _, metadata, _ in small_fleet.items()}
        assert classes <= {c.value for c in ServerClass}


class TestRawStoreAndExtraction:
    @pytest.fixture(scope="class")
    def raw_setup(self):
        spec = default_fleet_spec(servers_per_region=(6,), weeks=2, seed=3)
        frame = WorkloadGenerator(spec).generate_region("region-0")
        store = RawTelemetryStore()
        store.ingest_frame(frame, noise_rng=np.random.default_rng(0))
        return spec, frame, store

    def test_ingest_creates_minute_rows(self, raw_setup):
        _, frame, store = raw_setup
        assert store.regions() == ["region-0"]
        raw_rows = sum(ts.size for _, ts, _ in store.iter_region("region-0"))
        assert raw_rows > frame.total_points()

    def test_ingest_drops_and_redelivers_a_share_of_rows(self, raw_setup):
        _, frame, store = raw_setup
        per_minute = frame.total_points() * frame.interval_minutes
        raw_rows = sum(ts.size for _, ts, _ in store.iter_region("region-0"))
        # 1% dropped, then 0.5% of what is left delivered twice.
        assert 0.98 * per_minute < raw_rows < per_minute
        ts, _ = store.raw_rows("region-0", frame.server_ids()[0])
        assert np.unique(ts).size < ts.size

    def test_raw_rows_accessible(self, raw_setup):
        _, frame, store = raw_setup
        sid = frame.server_ids()[0]
        ts, vs = store.raw_rows("region-0", sid)
        assert ts.shape == vs.shape
        assert ts.size > 0

    def test_missing_server_raises(self, raw_setup):
        _, _, store = raw_setup
        with pytest.raises(KeyError):
            store.raw_rows("region-0", "missing")

    def test_extraction_writes_weekly_extract(self, raw_setup, tmp_path):
        _, frame, store = raw_setup
        lake = DataLakeStore(tmp_path)
        query = LoadExtractionQuery(store, lake)
        report = query.extract_week("region-0", 0)
        assert report.servers > 0
        assert lake.has_extract(ExtractKey("region-0", 0))
        stored = read_frame(lake, ExtractKey("region-0", 0), interval_minutes=None)
        assert stored.interval_minutes == 5  # the default grid, whatever the raw cadence

    def test_extracted_load_close_to_original(self, raw_setup, tmp_path):
        _, frame, store = raw_setup
        lake = DataLakeStore(tmp_path)
        LoadExtractionQuery(store, lake).extract_week("region-0", 0)
        extract = read_frame(lake, ExtractKey("region-0", 0))
        sid = next(
            sid for sid, md, s in frame.items()
            if not s.is_empty and s.start < MINUTES_PER_WEEK
        )
        original_week = frame.series(sid).slice(0, MINUTES_PER_WEEK)
        extracted = extract.series(sid)
        common_original, common_extracted = original_week.align_to(extracted)
        assert common_original.size > 0
        assert np.mean(np.abs(common_original - common_extracted)) < 2.0

    def test_extract_all_regions(self, raw_setup, tmp_path):
        _, _, store = raw_setup
        lake = DataLakeStore(tmp_path)
        reports = LoadExtractionQuery(store, lake).extract_all_regions(1)
        assert len(reports) == 1
        assert reports[0].key.week == 1

    def test_extraction_report_as_dict(self, raw_setup, tmp_path):
        _, _, store = raw_setup
        lake = DataLakeStore(tmp_path)
        report = LoadExtractionQuery(store, lake).extract_week("region-0", 0)
        payload = report.as_dict()
        assert payload["region"] == "region-0"
        assert payload["extracted_points"] > 0
