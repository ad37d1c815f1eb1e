"""Unit tests for the Accuracy Evaluation Module."""

import math

import numpy as np
import pytest

from repro.metrics.evaluation import (
    AccuracyEvaluationModule,
    evaluate_server_day,
)
from repro.parallel.executor import PartitionedExecutor
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import diurnal_series


def build_truth_frame(n_servers=4, n_days=28) -> LoadFrame:
    frame = LoadFrame(5)
    for index in range(n_servers):
        series = diurnal_series(n_days, noise=0.3, seed=index)
        frame.add_server(
            ServerMetadata(server_id=f"srv-{index}", backup_duration_minutes=60), series
        )
    return frame


def perfect_predictions(frame: LoadFrame, days) -> dict[str, LoadSeries]:
    predictions = {}
    for server_id, _, series in frame.items():
        chunks = [series.day(day) for day in days]
        combined = chunks[0]
        for chunk in chunks[1:]:
            combined = combined.concat(chunk)
        predictions[server_id] = combined
    return predictions


class TestEvaluateServerDay:
    def test_perfect_prediction(self):
        truth = diurnal_series(7)
        result = evaluate_server_day("srv", truth, truth, day=3, backup_duration_minutes=60)
        assert result.window_correct
        assert result.load_accurate
        assert result.bucket_ratio_in_window == pytest.approx(1.0)
        assert result.evaluable

    def test_unevaluable_day(self):
        truth = diurnal_series(7)
        result = evaluate_server_day("srv", truth, truth, day=50, backup_duration_minutes=60)
        assert not result.evaluable
        assert not result.window_correct
        assert math.isnan(result.bucket_ratio_in_window)
        assert result.failure_reason

    def test_inaccurate_load_detected(self):
        truth = diurnal_series(7)
        predicted = truth.with_values(np.clip(truth.values - 30.0, 0, 100))
        result = evaluate_server_day("srv", truth, predicted, day=3, backup_duration_minutes=60)
        assert not result.load_accurate

    def test_as_dict(self):
        truth = diurnal_series(7)
        result = evaluate_server_day("srv", truth, truth, day=2, backup_duration_minutes=60)
        payload = result.as_dict()
        assert payload["server_id"] == "srv"
        assert payload["day"] == 2


class TestAccuracyEvaluationModule:
    def test_evaluate_counts_all_server_days(self):
        frame = build_truth_frame()
        days = [6, 13, 20]
        predictions = perfect_predictions(frame, days)
        module = AccuracyEvaluationModule()
        evaluations = module.evaluate(frame, predictions, {sid: days for sid in frame.server_ids()})
        assert len(evaluations) == len(frame) * len(days)
        assert all(e.window_correct for e in evaluations)

    def test_summary_percentages(self):
        frame = build_truth_frame()
        days = [6, 13, 20]
        predictions = perfect_predictions(frame, days)
        module = AccuracyEvaluationModule()
        evaluations = module.evaluate(frame, predictions, {sid: days for sid in frame.server_ids()})
        summary = module.summarize(evaluations)
        assert summary.pct_windows_correct == pytest.approx(100.0)
        assert summary.pct_load_accurate == pytest.approx(100.0)
        assert summary.pct_predictable_servers == pytest.approx(100.0)
        assert summary.n_servers == len(frame)

    def test_summary_empty(self):
        module = AccuracyEvaluationModule()
        summary = module.summarize([])
        assert summary.n_server_days == 0
        assert math.isnan(summary.pct_windows_correct)

    def test_missing_predictions_are_skipped(self):
        frame = build_truth_frame(n_servers=3)
        days = [6, 13, 20]
        predictions = perfect_predictions(frame, days)
        del predictions["srv-0"]
        module = AccuracyEvaluationModule()
        evaluations = module.evaluate(frame, predictions, {sid: days for sid in frame.server_ids()})
        assert {e.server_id for e in evaluations} == {"srv-1", "srv-2"}

    def test_parallel_backend_matches_serial(self):
        frame = build_truth_frame(n_servers=6)
        days = [6, 13, 20]
        predictions = perfect_predictions(frame, days)
        days_map = {sid: days for sid in frame.server_ids()}

        serial = AccuracyEvaluationModule(executor=PartitionedExecutor.serial())
        parallel = AccuracyEvaluationModule(executor=PartitionedExecutor("threads", n_workers=3))
        serial_results = serial.evaluate(frame, predictions, days_map)
        parallel_results = parallel.evaluate(frame, predictions, days_map)

        key = lambda e: (e.server_id, e.day)
        assert sorted(map(key, serial_results)) == sorted(map(key, parallel_results))
        assert serial.summarize(serial_results) == parallel.summarize(parallel_results)

    def test_predictability_verdicts(self):
        frame = build_truth_frame(n_servers=2)
        days = [6, 13, 20]
        predictions = perfect_predictions(frame, days)
        module = AccuracyEvaluationModule()
        evaluations = module.evaluate(frame, predictions, {sid: days for sid in frame.server_ids()})
        verdicts = module.predictability(evaluations)
        assert len(verdicts) == 2
        assert all(v.predictable for v in verdicts.values())
        assert all(v.evaluated_days == tuple(days) for v in verdicts.values())
