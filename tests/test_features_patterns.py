"""Unit tests for daily/weekly pattern detection (Definitions 5-6)."""

import numpy as np
import pytest

from repro.features.patterns import (
    DayMatrix,
    day_over_day_bucket_ratio,
    has_daily_pattern,
    has_weekly_pattern,
    mean_ratio,
)
from repro.metrics.bucket_ratio import DEFAULT_ERROR_BOUND
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series, weekly_profile_series


class TestDayOverDayRatio:
    def test_identical_days_score_one(self):
        series = diurnal_series(14, noise=0.0)
        assert day_over_day_bucket_ratio(series, 5, 1) == pytest.approx(1.0)

    def test_missing_reference_day_is_nan(self):
        series = diurnal_series(3, start_day=5)
        assert np.isnan(day_over_day_bucket_ratio(series, 5, 1))

    def test_rejects_non_positive_lag(self):
        with pytest.raises(ValueError):
            day_over_day_bucket_ratio(diurnal_series(3), 1, 0)


class TestDailyPattern:
    def test_repeating_diurnal_shape_has_daily_pattern(self):
        assert has_daily_pattern(diurnal_series(28, noise=0.5, seed=1))

    def test_weekly_profile_has_no_daily_pattern(self):
        # Weekday/weekend levels differ, so Friday does not predict Saturday.
        assert not has_daily_pattern(weekly_profile_series(28))

    def test_too_short_history_is_no_pattern(self):
        assert not has_daily_pattern(diurnal_series(4))

    def test_min_days_configurable(self):
        series = diurnal_series(5, noise=0.2)
        assert has_daily_pattern(series, min_days=3)


class TestWeeklyPattern:
    def test_weekly_profile_detected(self):
        assert has_weekly_pattern(weekly_profile_series(28))

    def test_daily_pattern_excluded_from_weekly(self):
        # A daily-patterned server also matches week-over-week, but the
        # definition assigns it to the daily class only.
        assert not has_weekly_pattern(diurnal_series(28, noise=0.5, seed=1))

    def test_random_walk_has_no_weekly_pattern(self):
        rng = np.random.default_rng(3)
        values = np.clip(40 + np.cumsum(rng.normal(0, 1.5, 28 * POINTS_PER_DAY)), 0, 100)
        series = LoadSeries.from_values(values)
        assert not has_weekly_pattern(series)

    def test_too_short_history(self):
        assert not has_weekly_pattern(weekly_profile_series(10))


def strength(series, lag):
    """The extractor's pattern strength: the mean day ratio at ``lag``."""
    return mean_ratio(DayMatrix(series).ratios(lag, DEFAULT_ERROR_BOUND)[1])


class TestPatternStrength:
    def test_strength_of_perfect_daily_pattern(self):
        assert strength(diurnal_series(14, noise=0.0), 1) == pytest.approx(1.0)

    def test_strength_nan_without_reference_days(self):
        assert np.isnan(strength(diurnal_series(1), 7))

    @pytest.mark.parametrize("lag", [0, -1])
    @pytest.mark.parametrize("n_days", [0, 1, 3])
    def test_rejects_non_positive_lag_whatever_the_series(self, n_days, lag):
        series = diurnal_series(n_days) if n_days else LoadSeries.empty()
        with pytest.raises(ValueError, match="lag_days must be positive"):
            day_over_day_bucket_ratio(series, 1, lag)

    def test_weekly_stronger_than_daily_for_weekly_profile(self):
        series = weekly_profile_series(28)
        assert strength(series, 7) > strength(series, 1)
