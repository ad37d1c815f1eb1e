"""Unit tests for the persistent-forecast variants (Section 5.1)."""

import numpy as np
import pytest

from repro.models.base import ForecastError, NotFittedError
from repro.models.persistent import (
    PreviousDayForecaster,
    PreviousEquivalentDayForecaster,
    PreviousWeekAverageForecaster,
)
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series, weekly_profile_series


class TestPreviousDay:
    def test_replicates_last_day(self):
        history = diurnal_series(7, noise=0.0)
        forecast = PreviousDayForecaster().fit(history).predict(POINTS_PER_DAY)
        np.testing.assert_allclose(forecast.values, history.day(6).values)

    def test_forecast_grid_follows_history(self):
        history = diurnal_series(7)
        forecast = PreviousDayForecaster().fit(history).predict(10)
        assert forecast.start == history.end + history.interval_minutes

    def test_multi_day_horizon_tiles_last_day(self):
        history = diurnal_series(7, noise=0.0)
        forecast = PreviousDayForecaster().fit(history).predict(2 * POINTS_PER_DAY)
        np.testing.assert_allclose(
            forecast.values[:POINTS_PER_DAY], forecast.values[POINTS_PER_DAY:]
        )

    def test_requires_at_least_one_day(self):
        short = diurnal_series(1).slice(0, 100)
        with pytest.raises(ForecastError):
            PreviousDayForecaster().fit(short)

    def test_no_training_needed_flag(self):
        assert PreviousDayForecaster.requires_training is False

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            PreviousDayForecaster().predict(10)

    def test_empty_history_rejected(self):
        with pytest.raises(ForecastError):
            PreviousDayForecaster().fit(LoadSeries.empty())

    def test_non_positive_horizon_rejected(self):
        forecaster = PreviousDayForecaster().fit(diurnal_series(2))
        with pytest.raises(ValueError):
            forecaster.predict(0)


class TestPreviousEquivalentDay:
    def test_replicates_same_weekday_last_week(self):
        history = weekly_profile_series(14)
        forecast = PreviousEquivalentDayForecaster().fit(history).predict(POINTS_PER_DAY)
        np.testing.assert_allclose(forecast.values, history.day(7).values)

    def test_requires_a_week_of_history(self):
        with pytest.raises(ForecastError):
            PreviousEquivalentDayForecaster().fit(diurnal_series(3))

    def test_captures_weekly_pattern_better_than_previous_day(self):
        history = weekly_profile_series(14)  # forecast day 14 (a Sunday)
        truth = weekly_profile_series(15).day(14)
        eq_day = PreviousEquivalentDayForecaster().fit(history).predict(POINTS_PER_DAY)
        prev_day = PreviousDayForecaster().fit(history).predict(POINTS_PER_DAY)
        eq_error = np.mean(np.abs(eq_day.values - truth.values))
        prev_error = np.mean(np.abs(prev_day.values - truth.values))
        assert eq_error <= prev_error


class TestPreviousWeekAverage:
    def test_predicts_constant_mean(self):
        history = diurnal_series(7, noise=0.0)
        forecast = PreviousWeekAverageForecaster().fit(history).predict(10)
        assert np.allclose(forecast.values, history.last_days(7).mean())

    def test_requires_one_day(self):
        with pytest.raises(ForecastError):
            PreviousWeekAverageForecaster().fit(diurnal_series(1).slice(0, 200))


class TestFitResult:
    def test_fit_result_reports_zero_cost_training(self):
        forecaster = PreviousDayForecaster().fit(diurnal_series(7))
        assert forecaster.fit_result is not None
        assert forecaster.fit_result.fit_seconds < 0.5
        assert forecaster.fit_result.n_training_points == 7 * POINTS_PER_DAY
