"""Unit tests for calendar arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.timeseries import calendar

#: Epoch minutes on both sides of minute zero (a day index can be negative).
minutes = st.integers(min_value=-10 * calendar.MINUTES_PER_WEEK, max_value=10**9)
#: Every sampling interval that evenly divides a day.
divisors = st.sampled_from(
    [i for i in range(1, calendar.MINUTES_PER_DAY + 1) if calendar.MINUTES_PER_DAY % i == 0]
)


class TestDayAndWeekIndices:
    def test_day_index_at_epoch(self):
        assert calendar.day_index(0) == 0

    def test_day_index_last_minute_of_day(self):
        assert calendar.day_index(calendar.MINUTES_PER_DAY - 1) == 0

    def test_day_index_first_minute_of_next_day(self):
        assert calendar.day_index(calendar.MINUTES_PER_DAY) == 1

    def test_week_index(self):
        assert calendar.week_index(calendar.MINUTES_PER_WEEK * 3 + 5) == 3

    def test_day_start_rounds_down(self):
        ts = 3 * calendar.MINUTES_PER_DAY + 777
        assert calendar.day_start(ts) == 3 * calendar.MINUTES_PER_DAY

    def test_week_start_rounds_down(self):
        ts = 2 * calendar.MINUTES_PER_WEEK + 5000
        assert calendar.week_start(ts) == 2 * calendar.MINUTES_PER_WEEK


class TestMinuteOffsets:
    def test_minute_of_day(self):
        assert calendar.minute_of_day(2 * calendar.MINUTES_PER_DAY + 61) == 61


class TestBounds:
    def test_day_bounds(self):
        start, end = calendar.day_bounds(2)
        assert start == 2 * calendar.MINUTES_PER_DAY
        assert end - start == calendar.MINUTES_PER_DAY

    def test_week_bounds(self):
        start, end = calendar.week_bounds(1)
        assert start == calendar.MINUTES_PER_WEEK
        assert end - start == calendar.MINUTES_PER_WEEK


class TestPointsPerDay:
    def test_five_minute_grid(self):
        assert calendar.points_per_day(5) == 288

    def test_fifteen_minute_grid(self):
        assert calendar.points_per_day(15) == 96

    def test_rejects_non_divisor_interval(self):
        with pytest.raises(ValueError):
            calendar.points_per_day(7)

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            calendar.points_per_day(0)


class TestAlignment:
    def test_align_down(self):
        assert calendar.align_down(17, 5) == 15

    def test_align_down_exact(self):
        assert calendar.align_down(20, 5) == 20


class TestCalendarProperties:
    @given(minutes)
    def test_a_timestamp_lies_in_the_bounds_of_its_day(self, ts):
        start, end = calendar.day_bounds(calendar.day_index(ts))
        assert start == calendar.day_start(ts) <= ts < end
        assert calendar.minute_of_day(ts) == ts - start

    @given(minutes)
    def test_a_timestamp_lies_in_the_bounds_of_its_week(self, ts):
        start, end = calendar.week_bounds(calendar.week_index(ts))
        assert start == calendar.week_start(ts) <= ts < end

    @given(minutes)
    def test_a_week_holds_seven_whole_days(self, ts):
        week_start = calendar.week_start(ts)
        assert calendar.day_start(week_start) == week_start
        assert calendar.day_index(ts) - calendar.day_index(week_start) in range(7)

    @given(minutes, divisors)
    def test_align_down_lands_on_the_grid_within_one_interval(self, ts, interval):
        aligned = calendar.align_down(ts, interval)
        assert aligned % interval == 0
        assert aligned <= ts < aligned + interval

    @given(divisors)
    def test_a_days_points_tile_the_day(self, interval):
        assert calendar.points_per_day(interval) * interval == calendar.MINUTES_PER_DAY
