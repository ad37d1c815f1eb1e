"""Unit tests for the ML forecasters (SSA, feed-forward, seasonal, ARIMA)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.arima import ArimaConfig, ArimaForecaster
from repro.models.base import ForecastError
from repro.models.feedforward import FeedForwardForecaster
from repro.models.seasonal import SeasonalAdditiveForecaster, _fourier_table
from repro.models.ssa import SsaForecaster
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK, points_per_day
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


def reference_ridge_fit(design, target, alpha):
    gram = design.T @ design
    gram += alpha * np.eye(gram.shape[0])
    return np.linalg.solve(gram, design.T @ target)


class LoopSeasonalReference(SeasonalAdditiveForecaster):
    """Reference seasonal model: one ``sin``/``cos`` pass per Fourier order,
    ``column_stack``, and one Gram per (changepoint, ridge) pair."""

    def _design(self, timestamps, changepoints):
        t = (timestamps - self._t_offset) / self._t_scale
        columns = [np.ones_like(t), t]
        for changepoint in changepoints:
            columns.append(np.maximum(t - changepoint, 0.0))
        day_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_DAY) / MINUTES_PER_DAY
        for order in range(1, 9):
            columns.append(np.sin(order * day_phase))
            columns.append(np.cos(order * day_phase))
        week_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_WEEK) / MINUTES_PER_WEEK
        for order in range(1, 4):
            columns.append(np.sin(order * week_phase))
            columns.append(np.cos(order * week_phase))
        return np.column_stack(columns)

    def _fit(self, history):
        timestamps = history.timestamps.astype(np.float64)
        values = history.values.astype(np.float64)
        self._t_offset = float(timestamps[0])
        self._t_scale = max(float(timestamps[-1] - timestamps[0]), 1.0)
        holdout = max(1, int(0.2 * values.shape[0]))
        train_ts, train_vs = timestamps[:-holdout], values[:-holdout]
        valid_ts, valid_vs = timestamps[-holdout:], values[-holdout:]
        if train_vs.shape[0] < 4:
            train_ts, train_vs, valid_ts, valid_vs = timestamps, values, timestamps, values
        best = (float("inf"), 0.1, 0)
        for n_changepoints in (0, 6, 12, 25):
            changepoints = self._make_changepoints(n_changepoints)
            train_design = self._design(train_ts, changepoints)
            valid_design = self._design(valid_ts, changepoints)
            for alpha in (0.1, 1.0, 10.0, 100.0):
                coefficients = reference_ridge_fit(train_design, train_vs, alpha)
                error = float(np.mean((valid_design @ coefficients - valid_vs) ** 2))
                if error < best[0]:
                    best = (error, alpha, n_changepoints)
        _, alpha, n_changepoints = best
        self._changepoints = self._make_changepoints(n_changepoints)
        full_design = self._design(timestamps, self._changepoints)
        self._coefficients = reference_ridge_fit(full_design, values, alpha)


SEASONAL_ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CHANGEPOINT_COUNTS = st.sampled_from([0, 6, 12, 25])
# Anchors up to 2**36 weeks put timestamps far above 2**31 (and below
# -2**31); the offset lands a span anywhere around a week boundary.
WEEK_ANCHORS = st.integers(-(2**36), 2**36)
WEEK_OFFSETS = st.integers(-MINUTES_PER_WEEK, MINUTES_PER_WEEK)


def assert_design_matches_reference(timestamps, n_changepoints):
    timestamps = np.asarray(timestamps, dtype=np.float64)
    got, want = SeasonalAdditiveForecaster(), LoopSeasonalReference()
    for forecaster in (got, want):
        forecaster._t_offset = float(timestamps[0])
        forecaster._t_scale = max(float(timestamps[-1] - timestamps[0]), 1.0)
    changepoints = got._make_changepoints(n_changepoints)
    design = got._design(timestamps, changepoints)
    reference = want._design(timestamps, changepoints)
    assert design.shape == reference.shape and design.dtype == reference.dtype
    assert design.flags.c_contiguous
    assert np.array_equal(design, reference)


class TestSeasonalMatchesLoopReference:
    """Table-gathered Fourier columns and one Gram per changepoint count
    against the loop-built design and per-ridge Gram: bit for bit."""

    @SEASONAL_ORACLE
    @given(
        anchor=WEEK_ANCHORS,
        offset=WEEK_OFFSETS,
        step=st.sampled_from([1, 5, 15, 60]),
        n=st.integers(1, 600),
        n_changepoints=CHANGEPOINT_COUNTS,
    )
    @example(anchor=2**35, offset=-30, step=15, n=200, n_changepoints=25)
    @example(anchor=-(2**36), offset=-1, step=1, n=3, n_changepoints=6)
    def test_design_on_a_grid(self, anchor, offset, step, n, n_changepoints):
        start = anchor * MINUTES_PER_WEEK + offset
        assert_design_matches_reference(start + step * np.arange(n), n_changepoints)

    @SEASONAL_ORACLE
    @given(
        anchor=WEEK_ANCHORS,
        offsets=st.lists(WEEK_OFFSETS, min_size=1, max_size=300, unique=True),
        n_changepoints=CHANGEPOINT_COUNTS,
    )
    def test_design_off_grid(self, anchor, offsets, n_changepoints):
        timestamps = anchor * MINUTES_PER_WEEK + np.sort(np.asarray(offsets, dtype=np.int64))
        assert_design_matches_reference(timestamps, n_changepoints)

    @SEASONAL_ORACLE
    @given(
        n=st.integers(4, 3000),
        interval=st.sampled_from([1, 5, 15, 60]),
        start_minute=st.integers(-(2**40), 2**40),
        amplitude=st.floats(0.0, 50.0),
        noise=st.floats(0.0, 10.0),
        seed=SEEDS,
    )
    @example(n=3000, interval=5, start_minute=12, amplitude=30.0, noise=3.0, seed=1)
    @example(n=4, interval=5, start_minute=0, amplitude=30.0, noise=1.0, seed=0)
    @example(n=5, interval=60, start_minute=-7, amplitude=0.0, noise=0.0, seed=0)
    def test_fit_and_forecast(self, n, interval, start_minute, amplitude, noise, seed):
        """Four points fall back to training on the whole history."""
        rng = np.random.default_rng(seed)
        phase = 2 * np.pi * np.arange(n) * interval / MINUTES_PER_DAY
        values = np.clip(50 + amplitude * np.sin(phase) + rng.normal(0, noise, n), 0, 100)
        history = make_series(values, start=start_minute * interval, interval=interval)
        got = SeasonalAdditiveForecaster().fit(history)
        want = LoopSeasonalReference().fit(history)
        assert np.array_equal(got._changepoints, want._changepoints)
        assert np.array_equal(got._coefficients, want._coefficients)
        for horizon in (1, 6, 144, 288, 577):
            assert np.array_equal(got.predict(horizon).values, want.predict(horizon).values)

    def test_tables_are_read_only(self):
        for period, n_orders in ((MINUTES_PER_DAY, 8), (MINUTES_PER_WEEK, 3)):
            table = _fourier_table(period, n_orders)
            assert table.shape == (period, 2 * n_orders)
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_importing_the_package_builds_no_table(self):
        probe = (
            "import repro; from repro.models import seasonal; "
            "print(seasonal._fourier_table.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        )
        assert done.stdout.strip() == "0"


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
