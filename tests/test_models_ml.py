"""Unit tests for the ML forecasters (SSA, feed-forward, seasonal, ARIMA)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.arima import ArimaConfig, ArimaForecaster
from repro.models.base import ForecastError
from repro.models.feedforward import FeedForwardForecaster
from repro.models.seasonal import SeasonalAdditiveForecaster
from repro.models.ssa import SsaForecaster
from repro.timeseries.calendar import points_per_day
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series, make_series


@pytest.fixture(scope="module")
def weekly_history() -> LoadSeries:
    """One week of a clean diurnal trace used to train every model."""
    return diurnal_series(7, base=20, amplitude=40, noise=1.0, seed=4)


@pytest.fixture(scope="module")
def next_day_truth() -> LoadSeries:
    return diurnal_series(8, base=20, amplitude=40, noise=1.0, seed=4).day(7)


def mae(forecast: np.ndarray, true: np.ndarray) -> float:
    return float(np.mean(np.abs(forecast - true)))


class TestSsaForecaster:
    def test_forecast_tracks_diurnal_shape(self, weekly_history, next_day_truth):
        forecast = SsaForecaster(rank=6).fit(weekly_history).predict(POINTS_PER_DAY)
        error = mae(forecast.values, next_day_truth.values)
        assert error < 8.0

    def test_forecast_clipped_to_valid_range(self, weekly_history):
        forecast = SsaForecaster().fit(weekly_history).predict(POINTS_PER_DAY)
        assert forecast.minimum() >= 0.0
        assert forecast.maximum() <= 100.0

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            SsaForecaster().fit(make_series([1.0, 2.0]))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            SsaForecaster(rank=0)

    def test_custom_window(self, weekly_history):
        forecast = SsaForecaster(window_points=96, rank=4).fit(weekly_history).predict(48)
        assert len(forecast) == 48


def reference_ssa_forecast(values, n_points, window, rank):
    """Basic SSA + recurrent forecasting from a full SVD of the trajectory matrix."""
    n = values.shape[0]
    window = min(window, n // 2)
    if window < 2:
        raise ForecastError("history too short")
    trajectory = np.array([values[i : i + n - window + 1] for i in range(window)])
    u, s, vt = np.linalg.svd(trajectory, full_matrices=False)
    r = min(rank, window - 1)
    nu_sq = u[-1, :r] @ u[-1, :r]
    if nu_sq >= 1.0 - 1e-10:
        raise ForecastError("verticality ~ 1")
    recurrence = u[:-1, :r] @ u[-1, :r] / (1.0 - nu_sq)
    flipped = np.flipud((u[:, :r] * s[:r]) @ vt[:r])  # anti-diagonals become diagonals
    series = [flipped.diagonal(t - window + 1).mean() for t in range(n)]
    for _ in range(n_points):
        series.append(recurrence @ series[-(window - 1) :])
    return np.clip(series[n:], 0.0, 100.0)


SSA_ORACLE = settings(max_examples=12, deadline=None, derandomize=True, database=None)
INTERVALS = st.sampled_from([5, 15, 30, 60])
SEEDS = st.integers(0, 2**32 - 1)


def assert_ssa_matches_reference(values, interval, window_points=None, rank=8):
    """Both routes raise ``ForecastError`` on the same input; otherwise a
    day of forecast agrees to 1e-8 of the series' scale."""
    values = np.asarray(values, dtype=np.float64)
    window = window_points if window_points is not None else points_per_day(interval)
    n_points = points_per_day(interval)
    try:
        want = reference_ssa_forecast(values, n_points, window, rank)
    except ForecastError:
        with pytest.raises(ForecastError):
            SsaForecaster(window_points, rank).fit(make_series(values, interval=interval))
        return
    got = SsaForecaster(window_points, rank).fit(make_series(values, interval=interval))
    scale = float(np.abs(values).max())
    np.testing.assert_allclose(got.predict(n_points).values, want, rtol=1e-8, atol=1e-8 * scale)


class TestSsaMatchesSvdReference:
    """The lag-covariance fit against a plain SVD SSA written above."""

    @SSA_ORACLE
    @given(
        days=st.integers(2, 8),
        interval=INTERVALS,
        level=st.floats(0.0, 60.0),
        amplitude=st.floats(0.0, 80.0),
        noise=st.floats(0.1, 10.0),
        seed=SEEDS,
    )
    def test_noisy_diurnal(self, days, interval, level, amplitude, noise, seed):
        history = diurnal_series(days, level, amplitude, noise, interval, seed)
        assert_ssa_matches_reference(history.values, interval)

    @SSA_ORACLE
    @given(
        days=st.integers(2, 8),
        interval=INTERVALS,
        level=st.floats(1.0, 100.0),
        log_noise=st.floats(-5.0, -1.0),
        seed=SEEDS,
    )
    @example(days=7, interval=5, level=42.0, log_noise=-np.inf, seed=0)
    @example(days=7, interval=5, level=0.0, log_noise=-np.inf, seed=0)
    def test_near_constant(self, days, interval, level, log_noise, seed):
        """Noise from 1e-5 to 1e-1 of the level, and exactly constant
        (including all zero), where every component past the first is
        arbitrary in both routes."""
        n = days * points_per_day(interval)
        noise = np.random.default_rng(seed).normal(0.0, level * 10.0**log_noise, n)
        assert_ssa_matches_reference(level + noise, interval)

    @SSA_ORACLE
    @given(
        days=st.integers(2, 8),
        interval=INTERVALS,
        level=st.floats(20.0, 60.0),
        amplitude=st.floats(1.0, 20.0),
        periods_per_day=st.integers(1, 4),
    )
    def test_exactly_low_rank_sine(self, days, interval, level, amplitude, periods_per_day):
        """Rank 3 against eight kept components: the trailing eigenvectors
        are arbitrary in both routes, the forecast is not."""
        n = days * points_per_day(interval)
        phase = 2 * np.pi * periods_per_day * np.arange(n) / points_per_day(interval)
        assert_ssa_matches_reference(level + amplitude * np.sin(phase), interval)

    @SSA_ORACLE
    @given(values=st.lists(st.integers(0, 100), min_size=1, max_size=5), interval=INTERVALS)
    @example(values=[0, 0, 0, 5], interval=5)
    def test_shortest_windows(self, values, interval):
        """Up to three points is too short; four or five give ``n // 2 == 2``,
        and a lone spike at the end is vertical."""
        assert_ssa_matches_reference(values, interval)

    @SSA_ORACLE
    @given(
        days=st.integers(2, 8),
        interval=INTERVALS,
        window_points=st.integers(2, 120),
        rank=st.integers(1, 12),
        seed=SEEDS,
    )
    def test_custom_window_and_rank(self, days, interval, window_points, rank, seed):
        history = diurnal_series(days, 20.0, 50.0, 3.0, interval, seed)
        assert_ssa_matches_reference(history.values, interval, window_points, rank)

    def test_vertical_spike_raises(self):
        values = np.r_[np.zeros(7 * POINTS_PER_DAY - 1), 50.0]
        with pytest.raises(ForecastError):
            reference_ssa_forecast(values, POINTS_PER_DAY, POINTS_PER_DAY, 8)
        assert_ssa_matches_reference(values, 5)

    @pytest.mark.parametrize("relative_noise", [1e-6, 1e-8, 1e-10])
    def test_noise_below_eigensolver_resolution_moves_forecast_less_than_itself(
        self, relative_noise
    ):
        """X Xᵀ squares the condition number: a component whose energy is
        under ``window * eps`` of the leading one is not kept, where the SVD
        route keeps it.  The forecasts then differ by less than the noise."""
        level = 42.0
        noise = np.random.default_rng(1).normal(0.0, level * relative_noise, 7 * POINTS_PER_DAY)
        values = level + noise
        got = SsaForecaster().fit(make_series(values)).predict(POINTS_PER_DAY).values
        want = reference_ssa_forecast(values, POINTS_PER_DAY, POINTS_PER_DAY, 8)
        assert np.abs(got - want).max() < np.abs(noise).max()


class TestFeedForwardForecaster:
    def test_learns_diurnal_shape(self, weekly_history, next_day_truth):
        forecast = FeedForwardForecaster().fit(weekly_history).predict(POINTS_PER_DAY)
        error = mae(forecast.values, next_day_truth.values)
        # The network should clearly beat a constant-mean prediction.
        baseline = mae(
            np.full(POINTS_PER_DAY, weekly_history.mean()), next_day_truth.values
        )
        assert error < baseline

    def test_deterministic_given_seed(self, weekly_history):
        first = FeedForwardForecaster().fit(weekly_history).predict(48)
        second = FeedForwardForecaster().fit(weekly_history).predict(48)
        np.testing.assert_allclose(first.values, second.values)

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            FeedForwardForecaster().fit(make_series(np.ones(100)))

    def test_multi_chunk_forecast_length(self, weekly_history):
        forecast = FeedForwardForecaster().fit(weekly_history).predict(POINTS_PER_DAY + 7)
        assert len(forecast) == POINTS_PER_DAY + 7


class TestSeasonalAdditiveForecaster:
    def test_learns_daily_seasonality(self, weekly_history, next_day_truth):
        forecast = SeasonalAdditiveForecaster().fit(weekly_history).predict(POINTS_PER_DAY)
        error = mae(forecast.values, next_day_truth.values)
        assert error < 8.0

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            SeasonalAdditiveForecaster().fit(make_series([1.0, 2.0]))

    def test_flat_history_predicts_flat(self):
        history = make_series(np.full(7 * POINTS_PER_DAY, 42.0))
        forecast = SeasonalAdditiveForecaster().fit(history).predict(96)
        assert np.all(np.abs(forecast.values - 42.0) < 3.0)


class TestArimaForecaster:
    def test_forecast_on_autoregressive_signal(self):
        rng = np.random.default_rng(0)
        n = 600
        values = np.zeros(n)
        for t in range(1, n):
            values[t] = 0.8 * values[t - 1] + rng.normal(0, 1.0)
        values = np.clip(values + 30.0, 0, 100)
        history = make_series(values, interval=15)
        config = ArimaConfig(max_p=2, max_d=1, max_q=1, max_training_points=400)
        forecaster = ArimaForecaster(config).fit(history)
        forecast = forecaster.predict(8)
        assert len(forecast) == 8
        assert forecaster.order[0] >= 1  # picked an autoregressive order

    def test_history_too_short_raises(self):
        with pytest.raises(ForecastError):
            ArimaForecaster().fit(make_series(np.ones(8)))

    def test_training_points_cap_applies(self):
        config = ArimaConfig(max_p=1, max_d=0, max_q=0, max_training_points=64)
        history = make_series(np.sin(np.arange(500)) * 10 + 30)
        forecaster = ArimaForecaster(config).fit(history)
        assert len(forecaster.predict(4)) == 4

    def test_arima_is_markedly_slower_than_persistent(self):
        """The paper excludes ARIMA because its per-server order search is
        orders of magnitude more expensive than persistent forecast."""
        import time

        from repro.models.persistent import PreviousDayForecaster

        history = diurnal_series(7, noise=1.0, seed=9)

        start = time.perf_counter()
        PreviousDayForecaster().fit(history).predict(POINTS_PER_DAY)
        persistent_time = time.perf_counter() - start

        start = time.perf_counter()
        ArimaForecaster(ArimaConfig(max_p=1, max_d=1, max_q=1, max_training_points=576)).fit(
            history
        ).predict(POINTS_PER_DAY)
        arima_time = time.perf_counter() - start

        assert arima_time > 5 * persistent_time
