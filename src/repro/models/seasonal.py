"""Additive trend + seasonality forecaster (the Prophet stand-in).

Prophet fits an additive model of a piecewise-linear trend plus Fourier
seasonalities.  This module reproduces that decomposition with ridge
regression on a design matrix of changepoint-hinge trend features and
daily/weekly Fourier features, selecting the regularisation strength and
changepoint flexibility on a hold-out tail of the history.  Fourier columns
come from one cached table per period and each changepoint candidate forms
its normal equations once, so the stand-in costs less than SSA: the paper's
"Prophet slowest" ordering (Section 5.3.3) does not hold here.
"""

from __future__ import annotations

from functools import cache

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
_SEASONALITIES = ((MINUTES_PER_DAY, _DAILY_ORDER), (MINUTES_PER_WEEK, _WEEKLY_ORDER))


@cache
def _fourier_table(period: int, n_orders: int) -> np.ndarray:
    """Read-only ``(period, 2 * n_orders)`` sin/cos columns at each minute of ``period``."""
    phase = 2.0 * np.pi * np.arange(period, dtype=np.float64) / period
    table = np.empty((period, 2 * n_orders))
    for order in range(1, n_orders + 1):
        table[:, 2 * order - 2] = np.sin(order * phase)
        table[:, 2 * order - 1] = np.cos(order * phase)
    table.flags.writeable = False
    return table


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
        n_hinges = changepoints.shape[0]
        design = np.empty((timestamps.shape[0], 2 + n_hinges + 2 * (_DAILY_ORDER + _WEEKLY_ORDER)))
        t = (timestamps - self._t_offset) / self._t_scale
        design[:, 0] = 1.0
        design[:, 1] = t
        np.maximum(t[:, None] - changepoints, 0.0, out=design[:, 2 : 2 + n_hinges])
        # Timestamps are whole minutes, so ``minute % period`` is an exact table row.
        minutes = timestamps.astype(np.int64)
        column = 2 + n_hinges
        for period, n_orders in _SEASONALITIES:
            table = _fourier_table(period, n_orders)
            design[:, column : column + 2 * n_orders] = table[minutes % period]
            column += 2 * n_orders
        return design

    @staticmethod
    def _ridge_solve(gram: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
        return np.linalg.solve(gram + alpha * np.eye(gram.shape[0]), rhs)

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
            gram, rhs = train_design.T @ train_design, train_design.T @ train_vs
            for alpha in _RIDGE_CANDIDATES:
                coefficients = self._ridge_solve(gram, rhs, alpha)
                error = float(np.mean((valid_design @ coefficients - valid_vs) ** 2))
                if error < best[0]:
                    best = (error, alpha, n_changepoints)

        _, alpha, n_changepoints = best
        self._changepoints = self._make_changepoints(n_changepoints)
        full_design = self._design(timestamps, self._changepoints)
        gram, rhs = full_design.T @ full_design, full_design.T @ values
        self._coefficients = self._ridge_solve(gram, rhs, alpha)

    def _predict_values(self, n_points: int) -> np.ndarray:
        assert self._coefficients is not None and self._history is not None
        interval = self._history.interval_minutes
        start = self._history.end + interval
        future_ts = start + np.arange(n_points, dtype=np.float64) * interval
        design = self._design(future_ts, self._changepoints)
        return design @ self._coefficients
