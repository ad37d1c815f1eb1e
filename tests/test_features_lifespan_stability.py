"""Unit tests for lifespan (Definition 3) and stability (Definitions 4, 10)."""

import numpy as np
import pytest

from repro.features.lifespan import (
    DEFAULT_LIFESPAN_THRESHOLD_DAYS,
    is_long_lived,
    lifespan_days,
)
from repro.features.stability import is_stable, is_stable_database, stability_bucket_ratio
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series, make_series


class TestLifespan:
    def test_lifespan_of_four_weeks(self):
        series = diurnal_series(28)
        assert lifespan_days(series) == pytest.approx(28.0)

    def test_lifespan_of_empty_series_is_zero(self):
        assert lifespan_days(LoadSeries.empty()) == 0.0

    def test_threshold_is_three_weeks(self):
        assert DEFAULT_LIFESPAN_THRESHOLD_DAYS == 21

    def test_long_lived_boundary(self):
        exactly_21 = diurnal_series(21)
        just_over = diurnal_series(22)
        assert not is_long_lived(exactly_21)  # "more than three weeks"
        assert is_long_lived(just_over)

    def test_short_lived(self):
        assert not is_long_lived(diurnal_series(5))


class TestStableServer:
    def test_constant_load_is_stable(self):
        series = make_series(np.full(7 * POINTS_PER_DAY, 20.0))
        assert stability_bucket_ratio(series) == pytest.approx(1.0)
        assert is_stable(series)

    def test_small_noise_is_stable(self):
        rng = np.random.default_rng(0)
        series = make_series(np.clip(20 + rng.normal(0, 1.0, 7 * POINTS_PER_DAY), 0, 100))
        assert is_stable(series)

    def test_strong_diurnal_swing_is_unstable(self):
        series = diurnal_series(7, base=10, amplitude=50)
        assert not is_stable(series)

    def test_empty_series_is_not_stable(self):
        assert not is_stable(LoadSeries.empty())
        assert np.isnan(stability_bucket_ratio(LoadSeries.empty()))

    def test_asymmetric_bound_effect(self):
        # A series oscillating between mean-6 and mean+6 violates the -5
        # under-prediction bound half of the time (predicting the mean
        # under-estimates the high half by 6) -> unstable.
        values = np.tile([14.0, 26.0], 7 * POINTS_PER_DAY // 2)
        assert not is_stable(make_series(values))


class TestStableDatabase:
    def test_constant_database_is_stable(self):
        series = make_series(np.full(7 * 96, 30.0), interval=15)
        assert is_stable_database(series)

    def test_recent_spike_makes_unstable(self):
        values = np.full(7 * 96, 30.0)
        values[-96:] = 80.0  # last day jumps far beyond one std of the series
        assert not is_stable_database(make_series(values, interval=15))

    def test_empty_database_is_not_stable(self):
        assert not is_stable_database(LoadSeries.empty(15))

    def test_zero_variance_is_stable(self):
        series = make_series(np.full(4 * 96, 10.0), interval=15)
        assert is_stable_database(series)
