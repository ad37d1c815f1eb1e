"""Unit tests for LoadSeries."""

import numpy as np
import pytest

from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.series import IrregularSeriesError, LoadSeries

from tests.helpers import diurnal_series, make_series


class TestConstruction:
    def test_from_values_builds_regular_grid(self):
        series = LoadSeries.from_values([1.0, 2.0, 3.0], start=10, interval_minutes=5)
        assert series.timestamps.tolist() == [10, 15, 20]
        assert series.values.tolist() == [1.0, 2.0, 3.0]

    def test_empty_series(self):
        series = LoadSeries.empty()
        assert series.is_empty
        assert len(series) == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(IrregularSeriesError):
            LoadSeries([0, 5], [1.0])

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(IrregularSeriesError):
            LoadSeries([0, 0], [1.0, 2.0])

    def test_rejects_wrong_spacing(self):
        with pytest.raises(IrregularSeriesError):
            LoadSeries([0, 7], [1.0, 2.0], interval_minutes=5)

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            LoadSeries([0], [1.0], interval_minutes=0)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(IrregularSeriesError):
            LoadSeries(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_values_are_read_only_views(self):
        series = make_series([1, 2, 3])
        with pytest.raises(ValueError):
            series.values[0] = 99.0

    def test_equality(self):
        a = make_series([1, 2, 3])
        b = make_series([1, 2, 3])
        c = make_series([1, 2, 4])
        assert a == b
        assert a != c

    def test_repr_mentions_length(self):
        series = make_series([1, 2, 3])
        assert "n=3" in repr(series)


class TestSpanAndAccessors:
    def test_start_end(self):
        series = make_series([1, 2, 3], start=100)
        assert series.start == 100
        assert series.end == 110

    def test_start_of_empty_raises(self):
        with pytest.raises(ValueError):
            _ = LoadSeries.empty().start

    def test_span_counts_final_interval(self):
        series = make_series([1, 2, 3], start=0, interval=5)
        assert series.span_minutes == 15

    def test_iteration_yields_pairs(self):
        series = make_series([1.5, 2.5], start=0)
        assert list(series) == [(0, 1.5), (5, 2.5)]


class TestSlicing:
    def test_slice_half_open(self):
        series = make_series([1, 2, 3, 4], start=0)
        sliced = series.slice(5, 15)
        assert sliced.values.tolist() == [2, 3]

    def test_slice_outside_range_is_empty(self):
        series = make_series([1, 2, 3])
        assert series.slice(1000, 2000).is_empty

    def test_slice_rejects_inverted_bounds(self):
        series = make_series([1, 2, 3])
        with pytest.raises(ValueError):
            series.slice(10, 0)

    def test_day_extraction(self):
        series = diurnal_series(3)
        day1 = series.day(1)
        assert len(day1) == 288
        assert day1.start == MINUTES_PER_DAY

    def test_week_extraction(self):
        series = diurnal_series(14)
        assert len(series.week(1)) == 7 * 288

    def test_last_days(self):
        series = diurnal_series(10)
        assert len(series.last_days(2)) == 2 * 288

    def test_days_lists_covered_days(self):
        series = diurnal_series(3, start_day=2)
        assert series.days() == [2, 3, 4]


class TestShiftAndAlign:
    def test_shift_moves_timestamps(self):
        series = make_series([1, 2], start=0)
        shifted = series.shift(100)
        assert shifted.timestamps.tolist() == [100, 105]
        assert shifted.values.tolist() == [1, 2]

    def test_align_to_common_grid(self):
        a = make_series([1, 2, 3, 4], start=0)
        b = make_series([10, 20, 30], start=5)
        av, bv = a.align_to(b)
        assert av.tolist() == [2, 3, 4]
        assert bv.tolist() == [10, 20, 30]

    def test_align_to_disjoint_is_empty(self):
        a = make_series([1, 2], start=0)
        b = make_series([1, 2], start=1000)
        av, bv = a.align_to(b)
        assert av.size == 0 and bv.size == 0


class TestAggregation:
    def test_mean_std_min_max(self):
        series = make_series([1.0, 2.0, 3.0])
        assert series.mean() == pytest.approx(2.0)
        assert series.minimum() == 1.0
        assert series.maximum() == 3.0
        assert series.std() == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_empty_aggregates_are_nan(self):
        empty = LoadSeries.empty()
        assert np.isnan(empty.mean())
        assert np.isnan(empty.std())
        assert np.isnan(empty.minimum())
        assert np.isnan(empty.maximum())

    def test_stats_object(self):
        stats = make_series([2.0, 4.0]).stats()
        assert stats.count == 2
        assert stats.mean == pytest.approx(3.0)
        assert stats.as_dict()["max"] == 4.0

    def test_window_average(self):
        series = make_series([1, 2, 3, 4], start=0)
        assert series.window_average(0, 10) == pytest.approx(1.5)

    def test_clip(self):
        series = make_series([-5.0, 50.0, 150.0])
        clipped = series.clip()
        assert clipped.values.tolist() == [0.0, 50.0, 100.0]


class TestCombination:
    def test_concat_appends(self):
        a = make_series([1, 2], start=0)
        b = make_series([3, 4], start=10)
        combined = a.concat(b)
        assert combined.values.tolist() == [1, 2, 3, 4]

    def test_concat_rejects_overlap(self):
        a = make_series([1, 2], start=0)
        b = make_series([3, 4], start=5)
        with pytest.raises(IrregularSeriesError):
            a.concat(b)

    def test_concat_rejects_interval_mismatch(self):
        a = make_series([1, 2], start=0, interval=5)
        b = make_series([3, 4], start=100, interval=15)
        with pytest.raises(IrregularSeriesError):
            a.concat(b)

    def test_concat_with_empty(self):
        a = make_series([1, 2], start=0)
        assert a.concat(LoadSeries.empty()) == a
        assert LoadSeries.empty().concat(a) == a

    def test_with_values_replaces_values(self):
        a = make_series([1, 2, 3])
        b = a.with_values(np.array([4.0, 5.0, 6.0]))
        assert b.values.tolist() == [4, 5, 6]
        assert b.timestamps.tolist() == a.timestamps.tolist()

    def test_with_values_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            make_series([1, 2]).with_values(np.array([1.0]))

    def test_copy_is_independent(self):
        a = make_series([1, 2])
        b = a.copy()
        assert a == b and a is not b

    def test_to_rows(self):
        rows = make_series([1.0], start=5).to_rows("srv")
        assert rows == [("srv", 5, 1.0)]
