"""Unit tests for lowest-load windows (Definitions 7-8)."""

import numpy as np
import pytest

from repro.metrics.bucket_ratio import ErrorBound
from repro.metrics.ll_window import (
    LowestLoadWindow,
    WindowSearchError,
    default_window_is_lowest,
    is_window_correctly_chosen,
    lowest_load_window,
    predicted_and_true_windows,
    window_average_load,
)
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, make_series


def day_with_valley(valley_start_point: int, valley_points: int, day: int = 0,
                    base: float = 50.0, valley_level: float = 5.0) -> LoadSeries:
    """One day of constant load with a rectangular valley."""
    values = np.full(POINTS_PER_DAY, base)
    values[valley_start_point : valley_start_point + valley_points] = valley_level
    return LoadSeries.from_values(values, start=day * MINUTES_PER_DAY)


class TestLowestLoadWindow:
    def test_finds_valley(self):
        series = day_with_valley(100, 12)  # one-hour valley at point 100
        window = lowest_load_window(series, 0, 60)
        assert window.start == 100 * 5
        assert window.average_load == pytest.approx(5.0)
        assert window.duration_minutes == 60

    def test_window_longer_than_valley_centers_on_cheapest_interval(self):
        series = day_with_valley(100, 6)  # 30-minute valley, 60-minute backup
        window = lowest_load_window(series, 0, 60)
        # The best 60-minute window must contain the whole valley.
        assert window.start <= 100 * 5
        assert window.end >= (100 + 6) * 5

    def test_ties_resolve_to_earliest(self):
        series = LoadSeries.from_values(np.full(POINTS_PER_DAY, 10.0))
        window = lowest_load_window(series, 0, 30)
        assert window.start == 0

    def test_day_offset_respected(self):
        series = day_with_valley(50, 12, day=3)
        window = lowest_load_window(series, 3, 60)
        assert window.start == 3 * MINUTES_PER_DAY + 50 * 5

    def test_missing_day_raises(self):
        series = day_with_valley(0, 12, day=0)
        with pytest.raises(WindowSearchError):
            lowest_load_window(series, 5, 60)

    def test_day_shorter_than_window_raises(self):
        series = make_series([1.0, 2.0, 3.0])
        with pytest.raises(WindowSearchError):
            lowest_load_window(series, 0, 60)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            lowest_load_window(day_with_valley(0, 1), 0, 0)

    def test_window_properties(self):
        window = LowestLoadWindow(start=100, duration_minutes=60, average_load=3.0)
        assert window.end == 160
        assert window.as_dict()["duration_minutes"] == 60


class TestCorrectlyChosenWindow:
    def test_exact_match_is_correct(self):
        truth = day_with_valley(100, 12)
        assert is_window_correctly_chosen(truth, truth, 0, 60)

    def test_nonoverlapping_but_similar_load_is_correct(self):
        # Figure 8: predicted and true windows do not overlap but the true
        # load during the predicted window is only slightly higher.
        truth_values = np.full(POINTS_PER_DAY, 50.0)
        truth_values[100:112] = 5.0     # true LL window
        truth_values[200:212] = 7.0     # slightly worse second valley
        truth = LoadSeries.from_values(truth_values)

        predicted_values = np.full(POINTS_PER_DAY, 50.0)
        predicted_values[200:212] = 4.0  # prediction picks the second valley
        predicted = LoadSeries.from_values(predicted_values)

        assert is_window_correctly_chosen(predicted, truth, 0, 60)

    def test_prediction_pointing_at_busy_period_is_incorrect(self):
        # Figure 9: load predicted accurately during the predicted window,
        # but the true LL window is much lower -> incorrectly chosen.
        truth_values = np.full(POINTS_PER_DAY, 50.0)
        truth_values[100:112] = 2.0
        truth = LoadSeries.from_values(truth_values)

        predicted_values = np.full(POINTS_PER_DAY, 50.0)
        predicted_values[250:262] = 1.0
        predicted = LoadSeries.from_values(predicted_values)

        assert not is_window_correctly_chosen(predicted, truth, 0, 60)

    def test_orthogonality_window_correct_but_load_inaccurate(self):
        # Figure 10: the windows coincide, so the window is chosen correctly
        # even though the predicted level is far below the true level.
        truth_values = np.full(POINTS_PER_DAY, 80.0)
        truth_values[100:112] = 40.0
        truth = LoadSeries.from_values(truth_values)
        predicted = LoadSeries.from_values(np.where(truth_values == 40.0, 5.0, 60.0))
        assert is_window_correctly_chosen(predicted, truth, 0, 60)

    def test_custom_bound(self):
        truth_values = np.full(POINTS_PER_DAY, 50.0)
        truth_values[100:112] = 10.0
        truth_values[200:212] = 25.0
        truth = LoadSeries.from_values(truth_values)
        predicted_values = np.full(POINTS_PER_DAY, 50.0)
        predicted_values[200:212] = 1.0
        predicted = LoadSeries.from_values(predicted_values)
        # 15-point difference: incorrect under the default +10 bound, correct
        # under a looser +20 bound.
        assert not is_window_correctly_chosen(predicted, truth, 0, 60)
        loose = ErrorBound(over_tolerance=20.0, under_tolerance=5.0)
        assert is_window_correctly_chosen(predicted, truth, 0, 60, bound=loose)

    def test_predicted_and_true_windows_helper(self):
        truth = day_with_valley(100, 12)
        predicted = day_with_valley(50, 12)
        pred_window, true_window = predicted_and_true_windows(predicted, truth, 0, 60)
        assert pred_window.start == 50 * 5
        assert true_window.start == 100 * 5


class TestDefaultWindowHelpers:
    def test_window_average_load(self):
        series = make_series([10, 20, 30, 40], start=0)
        assert window_average_load(series, 0, 10) == pytest.approx(15.0)

    def test_default_window_is_lowest_true_case(self):
        series = day_with_valley(100, 24)
        assert default_window_is_lowest(series, 100 * 5, 0, 60)

    def test_default_window_is_lowest_false_case(self):
        series = day_with_valley(100, 24)
        assert not default_window_is_lowest(series, 0, 0, 60)
