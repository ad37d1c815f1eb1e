"""Unit tests for the backup-scheduling use case (fabric, scheduler, runner, impact)."""

import numpy as np
import pytest

from repro.features.extractor import FeatureExtractionModule
from repro.metrics.predictable import PredictabilityVerdict
from repro.scheduling.backup import BackupScheduler, ScheduleOutcome
from repro.scheduling.fabric import BACKUP_WINDOW_PROPERTY, FabricPropertyStore
from repro.scheduling.impact import BackupImpactAnalyzer
from repro.scheduling.runner import RunnerService
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series


def predictable_verdict(server_id="srv", predictable=True) -> PredictabilityVerdict:
    return PredictabilityVerdict(
        server_id=server_id,
        evaluated_days=(6, 13, 20),
        window_correct_days=(6, 13, 20) if predictable else (6,),
        load_accurate_days=(6, 13, 20) if predictable else (6,),
        required_days=3,
        predictable=predictable,
    )


def metadata_for(server_id: str, backup_day: int = 27, offset: int = 600) -> ServerMetadata:
    start = backup_day * MINUTES_PER_DAY + offset
    return ServerMetadata(
        server_id=server_id,
        region="region-0",
        default_backup_start=start,
        default_backup_end=start + 60,
        backup_duration_minutes=60,
    )


class TestFabricPropertyStore:
    def test_set_and_get(self):
        fabric = FabricPropertyStore()
        fabric.set_property("srv", "key", 5)
        assert fabric.get_property("srv", "key") == 5

    def test_versioning(self):
        fabric = FabricPropertyStore()
        fabric.set_property("srv", "key", 1)
        record = fabric.set_property("srv", "key", 2)
        assert record.version == 2

    def test_default_for_missing(self):
        assert FabricPropertyStore().get_property("srv", "missing") is None

    def test_backup_window_property(self):
        fabric = FabricPropertyStore()
        fabric.set_backup_window_start("srv", 1234)
        assert fabric.get_property("srv", BACKUP_WINDOW_PROPERTY) == 1234
        assert fabric.get_property("other", BACKUP_WINDOW_PROPERTY) is None


class TestBackupScheduler:
    def test_predictable_server_moves_to_predicted_window(self):
        metadata = metadata_for("srv")
        truth = diurnal_series(28, noise=0.2, seed=1)
        prediction = truth.day(27)
        decision = BackupScheduler().schedule_server(metadata, prediction, predictable_verdict())
        assert decision.outcome is ScheduleOutcome.MOVED_TO_PREDICTED_WINDOW
        assert decision.moved
        assert decision.backup_day == 27
        # The chosen start must lie within the backup day.
        assert 27 * MINUTES_PER_DAY <= decision.scheduled_start < 28 * MINUTES_PER_DAY

    def test_unpredictable_server_keeps_default(self):
        metadata = metadata_for("srv")
        prediction = diurnal_series(28).day(27)
        decision = BackupScheduler().schedule_server(
            metadata, prediction, predictable_verdict(predictable=False)
        )
        assert decision.outcome is ScheduleOutcome.DEFAULT_KEPT_NOT_PREDICTABLE
        assert decision.scheduled_start == metadata.default_backup_start

    def test_missing_verdict_keeps_default(self):
        metadata = metadata_for("srv")
        decision = BackupScheduler().schedule_server(metadata, diurnal_series(28).day(27), None)
        assert not decision.moved

    def test_missing_prediction_keeps_default(self):
        decision = BackupScheduler().schedule_server(metadata_for("srv"), None, predictable_verdict())
        assert decision.outcome is ScheduleOutcome.DEFAULT_KEPT_NO_PREDICTION

    def test_unusable_prediction_keeps_default(self):
        # Prediction covers the wrong day, so no window can be found.
        wrong_day = diurnal_series(1)
        decision = BackupScheduler().schedule_server(
            metadata_for("srv"), wrong_day, predictable_verdict()
        )
        assert decision.outcome is ScheduleOutcome.DEFAULT_KEPT_PREDICTION_UNUSABLE

    def test_fabric_property_written(self):
        fabric = FabricPropertyStore()
        metadata = metadata_for("srv")
        decision = BackupScheduler(fabric).schedule_server(
            metadata, diurnal_series(28).day(27), predictable_verdict()
        )
        assert fabric.get_property("srv", BACKUP_WINDOW_PROPERTY) == decision.scheduled_start

    def test_schedule_fleet(self):
        scheduler = BackupScheduler()
        metadata = {f"srv-{i}": metadata_for(f"srv-{i}") for i in range(3)}
        predictions = {f"srv-{i}": diurnal_series(28, seed=i).day(27) for i in range(3)}
        verdicts = {f"srv-{i}": predictable_verdict(f"srv-{i}", predictable=(i != 1)) for i in range(3)}
        decisions = scheduler.schedule_fleet(metadata, predictions, verdicts)
        assert len(decisions) == 3
        assert decisions["srv-0"].moved
        assert not decisions["srv-1"].moved

    def test_decision_as_dict(self):
        decision = BackupScheduler().schedule_server(
            metadata_for("srv"), diurnal_series(28).day(27), predictable_verdict()
        )
        payload = decision.as_dict()
        assert payload["server_id"] == "srv"
        assert payload["outcome"] == "moved_to_predicted_window"


def serving_with(predictions, region="region-0"):
    """A PredictionService with one deployed version replaying ``predictions``."""
    from repro.models.cached import PrecomputedForecaster
    from repro.serving import PredictionService

    serving = PredictionService()
    forecasters = {sid: PrecomputedForecaster(series, "pf") for sid, series in predictions.items()}
    serving.deploy(region, "pf", 3, forecasters)
    return serving


class TestRunnerService:
    def test_run_day_schedules_fleet(self):
        predictions = {"srv-0": diurnal_series(28).day(27)}
        runner = RunnerService("region-0", serving=serving_with(predictions))
        metadata = {"srv-0": metadata_for("srv-0")}
        verdicts = {"srv-0": predictable_verdict("srv-0")}
        execution = runner.run_day("cluster-1", 27, metadata, verdicts)
        assert execution.succeeded
        assert "srv-0" in execution.decisions
        assert execution.decisions["srv-0"].moved
        # Predictions were obtained through the serving layer.
        assert execution.serving is not None
        assert execution.serving.n_served == 1
        assert execution.serving.served_by_version == 1
        assert runner.availability() == 1.0

    def test_run_day_asks_for_one_day_by_default(self):
        predictions = {"srv-0": diurnal_series(28).day(27)}
        runner = RunnerService("region-0", serving=serving_with(predictions))
        metadata = {"srv-0": metadata_for("srv-0")}
        execution = runner.run_day("cluster-1", 27, metadata, {})
        (response,) = execution.serving.responses
        assert response.request.n_points == POINTS_PER_DAY

    def test_repeated_run_day_served_from_prediction_cache(self):
        predictions = {"srv-0": diurnal_series(28).day(27)}
        runner = RunnerService("region-0", serving=serving_with(predictions))
        metadata = {"srv-0": metadata_for("srv-0")}
        verdicts = {"srv-0": predictable_verdict("srv-0")}
        first = runner.run_day("cluster-1", 27, metadata, verdicts)
        second = runner.run_day("cluster-2", 27, metadata, verdicts)
        assert first.serving.cache_hits == 0
        assert second.serving.cache_hits == 1
        assert first.decisions["srv-0"].scheduled_start == second.decisions[
            "srv-0"
        ].scheduled_start

    def test_no_active_version_keeps_default_windows(self):
        from repro.serving import PredictionService

        runner = RunnerService("region-0", serving=PredictionService())
        metadata = {"srv-0": metadata_for("srv-0")}
        execution = runner.run_day("cluster-1", 27, metadata, {})
        assert execution.succeeded
        assert execution.serving is None
        assert execution.decisions["srv-0"].scheduled_start == metadata[
            "srv-0"
        ].default_backup_start

    def test_failed_probe_blocks_scheduling(self):
        runner = RunnerService("region-0", probes={"backup_service": lambda: False})
        execution = runner.run_day("cluster-1", 27, {}, {})
        assert not execution.succeeded
        assert execution.decisions == {}
        assert runner.availability() == 0.0

    def test_raising_probe_is_recorded_not_raised(self):
        def broken():
            raise RuntimeError("probe down")

        runner = RunnerService("region-0", probes={"bad": broken})
        execution = runner.run_day("cluster-1", 27, {}, {})
        assert not execution.succeeded
        assert execution.probes[0].detail == "probe down"

    def test_only_own_region_scheduled(self):
        runner = RunnerService("region-1", serving=serving_with({}, region="region-1"))
        metadata = {"srv-0": metadata_for("srv-0")}  # region-0 server
        execution = runner.run_day("cluster-1", 27, metadata, {})
        assert execution.decisions == {}


class TestBackupImpactAnalyzer:
    def build_fleet(self):
        """Three servers: one with a deep daily valley (default collides with
        the peak), one stable, one busy with a valley."""
        frame = LoadFrame(5)

        # Daily-pattern server: valley at night, default backup at noon peak.
        diurnal = diurnal_series(28, base=10, amplitude=60, noise=0.3, seed=1)
        frame.add_server(metadata_for("daily", offset=720), diurnal)

        # Stable server: any window is a lowest-load window.
        stable_values = np.clip(12 + np.random.default_rng(2).normal(0, 1, 28 * POINTS_PER_DAY), 0, 100)
        frame.add_server(metadata_for("stable", offset=300), LoadSeries.from_values(stable_values))

        # Busy server: load above 60 most of the day with a short quiet window.
        busy_values = np.full(28 * POINTS_PER_DAY, 75.0)
        for day in range(28):
            start = day * POINTS_PER_DAY + 30
            busy_values[start : start + 48] = 20.0
        frame.add_server(metadata_for("busy", offset=720), LoadSeries.from_values(busy_values))
        return frame

    def test_impact_report(self):
        frame = self.build_fleet()
        features = FeatureExtractionModule().extract_frame(frame)
        scheduler = BackupScheduler()
        predictions = {sid: frame.series(sid).day(26).shift(MINUTES_PER_DAY) for sid in frame.server_ids()}
        verdicts = {sid: predictable_verdict(sid) for sid in frame.server_ids()}
        metadata = {sid: frame.metadata(sid) for sid in frame.server_ids()}
        decisions = scheduler.schedule_fleet(metadata, predictions, verdicts)

        report = BackupImpactAnalyzer().analyze(frame, decisions, features)
        assert report.n_servers == 3
        # The daily and busy servers' backups moved into their valleys.
        assert report.pct_moved_to_ll_window > 0
        assert report.improved_hours > 0
        # The stable server's default window already is a LL window.
        assert report.pct_stable_default_already_ll == pytest.approx(100.0)
        # The busy server avoided a collision.
        assert report.pct_busy_collisions_avoided == pytest.approx(100.0)
        assert report.pct_windows_incorrect < 50.0

    def test_empty_decisions(self):
        report = BackupImpactAnalyzer().analyze(LoadFrame(5), {}, {})
        assert report.n_servers == 0
        assert np.isnan(report.pct_moved_to_ll_window)
