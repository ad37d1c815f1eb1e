"""Additive trend + seasonality forecaster (the Prophet stand-in).

Prophet fits an additive model of a piecewise-linear trend plus Fourier
seasonalities.  This module reproduces that decomposition with ridge
regression on a design matrix of changepoint-hinge trend features and
daily/weekly Fourier features, selecting the regularisation strength and
changepoint flexibility on a hold-out tail of the history.  The
hyper-parameter search makes the model noticeably more expensive than SSA
or the feed-forward network, matching the scalability ordering the paper
observed (Prophet slowest, Section 5.3.3).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Forecaster, ForecastError
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK
from repro.timeseries.series import LoadSeries


# Hyper-parameters: Fourier orders of the daily and weekly seasonalities,
# the ridge strengths and changepoint counts searched, and the share of
# the history held out to choose between them.
_DAILY_ORDER = 8
_WEEKLY_ORDER = 3
_RIDGE_CANDIDATES = (0.1, 1.0, 10.0, 100.0)
_CHANGEPOINT_CANDIDATES = (0, 6, 12, 25)
_HOLDOUT_FRACTION = 0.2


class SeasonalAdditiveForecaster(Forecaster):
    """Piecewise-linear trend plus daily/weekly Fourier seasonality."""

    name = "seasonal_additive"

    def __init__(self) -> None:
        super().__init__()
        self._coefficients: np.ndarray | None = None
        self._changepoints: np.ndarray = np.empty(0)
        self._t_scale = 1.0
        self._t_offset = 0.0

    # ------------------------------------------------------------------ #
    # Design matrix
    # ------------------------------------------------------------------ #

    def _design(self, timestamps: np.ndarray, changepoints: np.ndarray) -> np.ndarray:
        t = (timestamps - self._t_offset) / self._t_scale
        columns: list[np.ndarray] = [np.ones_like(t), t]
        for changepoint in changepoints:
            columns.append(np.maximum(t - changepoint, 0.0))
        day_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_DAY) / MINUTES_PER_DAY
        for order in range(1, _DAILY_ORDER + 1):
            columns.append(np.sin(order * day_phase))
            columns.append(np.cos(order * day_phase))
        week_phase = 2.0 * np.pi * (timestamps % MINUTES_PER_WEEK) / MINUTES_PER_WEEK
        for order in range(1, _WEEKLY_ORDER + 1):
            columns.append(np.sin(order * week_phase))
            columns.append(np.cos(order * week_phase))
        return np.column_stack(columns)

    @staticmethod
    def _ridge_fit(design: np.ndarray, target: np.ndarray, alpha: float) -> np.ndarray:
        gram = design.T @ design
        gram += alpha * np.eye(gram.shape[0])
        return np.linalg.solve(gram, design.T @ target)

    def _make_changepoints(self, n_changepoints: int) -> np.ndarray:
        if n_changepoints <= 0:
            return np.empty(0)
        # Changepoints on the first 80% of the (normalised) training range,
        # matching Prophet's default behaviour.
        return np.linspace(0.0, 0.8, n_changepoints + 2)[1:-1]

    # ------------------------------------------------------------------ #
    # Forecaster hooks
    # ------------------------------------------------------------------ #

    def _fit(self, history: LoadSeries) -> None:
        timestamps = history.timestamps.astype(np.float64)
        values = history.values.astype(np.float64)
        if values.shape[0] < 4:
            raise ForecastError(f"{self.name}: history too short")

        self._t_offset = float(timestamps[0])
        self._t_scale = max(float(timestamps[-1] - timestamps[0]), 1.0)

        holdout = max(1, int(_HOLDOUT_FRACTION * values.shape[0]))
        train_ts, train_vs = timestamps[:-holdout], values[:-holdout]
        valid_ts, valid_vs = timestamps[-holdout:], values[-holdout:]
        if train_vs.shape[0] < 4:
            train_ts, train_vs = timestamps, values
            valid_ts, valid_vs = timestamps, values

        best = (float("inf"), _RIDGE_CANDIDATES[0], _CHANGEPOINT_CANDIDATES[0])
        for n_changepoints in _CHANGEPOINT_CANDIDATES:
            changepoints = self._make_changepoints(n_changepoints)
            train_design = self._design(train_ts, changepoints)
            valid_design = self._design(valid_ts, changepoints)
            for alpha in _RIDGE_CANDIDATES:
                coefficients = self._ridge_fit(train_design, train_vs, alpha)
                error = float(np.mean((valid_design @ coefficients - valid_vs) ** 2))
                if error < best[0]:
                    best = (error, alpha, n_changepoints)

        _, alpha, n_changepoints = best
        self._changepoints = self._make_changepoints(n_changepoints)
        full_design = self._design(timestamps, self._changepoints)
        self._coefficients = self._ridge_fit(full_design, values, alpha)

    def _predict_values(self, n_points: int) -> np.ndarray:
        assert self._coefficients is not None and self._history is not None
        interval = self._history.interval_minutes
        start = self._history.end + interval
        future_ts = start + np.arange(n_points, dtype=np.float64) * interval
        design = self._design(future_ts, self._changepoints)
        return design @ self._coefficients
