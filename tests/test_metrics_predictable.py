"""Unit tests for the predictable-server rule (Definition 9)."""

import numpy as np

from repro.metrics.predictable import is_predictable_server
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series


def perfect_prediction_case(n_days=28):
    truth = diurnal_series(n_days, noise=0.2, seed=7)
    # A prediction equal to the truth on every evaluation day.
    return truth, truth


class TestPredictableServer:
    def test_perfect_predictions_are_predictable(self):
        truth, predicted = perfect_prediction_case()
        verdict = is_predictable_server(
            "srv", truth, predicted, evaluation_days=[6, 13, 20], backup_duration_minutes=60
        )
        assert verdict.predictable
        assert verdict.evaluated_days == (6, 13, 20)
        assert verdict.window_correct_days == (6, 13, 20)
        assert verdict.load_accurate_days == (6, 13, 20)

    def test_too_few_days_is_not_predictable(self):
        truth, predicted = perfect_prediction_case()
        verdict = is_predictable_server(
            "srv", truth, predicted, evaluation_days=[6, 13], backup_duration_minutes=60
        )
        assert not verdict.predictable
        assert "required" in verdict.reason

    def test_one_bad_day_breaks_predictability(self):
        truth = diurnal_series(28, noise=0.2, seed=7)
        # Corrupt the prediction on day 13: shift the diurnal shape by half a
        # day so the predicted valley lands on the true peak.
        predicted_values = truth.values.copy()
        day13 = slice(13 * POINTS_PER_DAY, 14 * POINTS_PER_DAY)
        predicted_values[day13] = np.roll(predicted_values[day13], POINTS_PER_DAY // 2)
        predicted = LoadSeries.from_values(predicted_values)
        verdict = is_predictable_server(
            "srv", truth, predicted, evaluation_days=[6, 13, 20], backup_duration_minutes=60
        )
        assert not verdict.predictable
        assert 13 not in verdict.window_correct_days or 13 not in verdict.load_accurate_days

    def test_missing_days_reported_in_reason(self):
        truth = diurnal_series(7)
        predicted = truth
        verdict = is_predictable_server(
            "srv", truth, predicted, evaluation_days=[6, 30, 40], backup_duration_minutes=60
        )
        assert not verdict.predictable
        assert verdict.evaluated_days == (6,)

    def test_required_days_configurable(self):
        truth, predicted = perfect_prediction_case()
        verdict = is_predictable_server(
            "srv",
            truth,
            predicted,
            evaluation_days=[6],
            backup_duration_minutes=60,
            required_days=1,
        )
        assert verdict.predictable

    def test_as_dict_contains_core_fields(self):
        truth, predicted = perfect_prediction_case()
        verdict = is_predictable_server(
            "srv", truth, predicted, evaluation_days=[6, 13, 20], backup_duration_minutes=60
        )
        payload = verdict.as_dict()
        assert payload["server_id"] == "srv"
        assert payload["predictable"] is True
        assert payload["evaluated_days"] == [6, 13, 20]

    def test_duplicate_days_are_deduplicated(self):
        truth, predicted = perfect_prediction_case()
        verdict = is_predictable_server(
            "srv", truth, predicted, evaluation_days=[6, 6, 13, 20], backup_duration_minutes=60
        )
        assert verdict.evaluated_days == (6, 13, 20)
