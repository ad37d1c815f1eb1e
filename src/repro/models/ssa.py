"""Singular Spectrum Analysis forecaster (the NimbusML stand-in).

NimbusML's contribution to the paper's comparison is its
``SsaForecaster`` transform.  SSA embeds the series in its L x K trajectory
(Hankel) matrix X, keeps the leading r-dimensional left singular subspace
and forecasts with the linear recurrence implied by that subspace ("Basic
SSA + recurrent forecasting").

The subspace comes from the L x L lag-covariance X Xᵀ = U S² Uᵀ: its top-r
eigenvectors span the same subspace as the top-r left singular vectors, and
the recurrence depends only on that subspace (through the projector
U_r U_rᵀ), so it is the SVD route's recurrence without the L x K
decomposition.  The forecast starts from the last L - 1 points of the
diagonal-averaged rank-r reconstruction U_r U_rᵀ X; every anti-diagonal
ending at one of those points lies in the last L - 1 columns of X, so only
those columns are projected.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg

from repro.models.base import Forecaster, ForecastError
from repro.timeseries.calendar import points_per_day
from repro.timeseries.series import LoadSeries


class SsaForecaster(Forecaster):
    """Recurrent SSA forecaster.

    Parameters
    ----------
    window_points:
        Embedding window length.  Defaults to one day of samples, which
        captures the diurnal structure the backup scheduler cares about.
    rank:
        Number of leading singular components retained.  Defaults to 8,
        enough for a trend plus a few harmonics.
    """

    name = "ssa"

    def __init__(self, window_points: int | None = None, rank: int = 8) -> None:
        super().__init__()
        if rank < 1:
            raise ValueError("rank must be at least 1")
        self._requested_window = window_points
        self._rank = rank
        self._recurrence: np.ndarray | None = None
        self._reconstructed_tail: np.ndarray | None = None

    def _fit(self, history: LoadSeries) -> None:
        values = history.values.astype(np.float64)
        n = values.shape[0]
        default_window = points_per_day(history.interval_minutes)
        window = self._requested_window if self._requested_window is not None else default_window
        window = int(min(window, n // 2))
        if window < 2:
            raise ForecastError(
                f"{self.name}: history too short for SSA (got {n} points)"
            )
        rank = int(min(self._rank, window - 1))

        trajectory = np.ascontiguousarray(sliding_window_view(values, n - window + 1))
        eigenvalues, u_r = linalg.eigh(
            trajectory @ trajectory.T, subset_by_index=[window - rank, window - 1]
        )
        # Components below the eigensolver's resolution carry no signal and
        # their eigenvectors are arbitrary; none of them joins the subspace.
        u_r = u_r[:, eigenvalues > eigenvalues[-1] * window * np.finfo(np.float64).eps]

        # Linear recurrence coefficients from the retained subspace.
        pi = u_r[-1, :]
        nu_sq = float(np.dot(pi, pi))
        if nu_sq >= 1.0 - 1e-10:
            raise ForecastError(f"{self.name}: series is not forecastable (verticality ~ 1)")
        self._recurrence = (u_r[:-1, :] @ pi) / (1.0 - nu_sq)

        # Anti-diagonals window-1 .. 2*window-3 of the last window-1 columns'
        # reconstruction are the last window-1 points of the series.
        approx = u_r @ (u_r.T @ trajectory[:, -(window - 1):])
        diagonal = np.add.outer(np.arange(window), np.arange(window - 1)).ravel()
        sums = np.bincount(diagonal, weights=approx.ravel())[window - 1:]
        self._reconstructed_tail = sums / np.arange(window - 1, 0, -1)

    def _predict_values(self, n_points: int) -> np.ndarray:
        assert self._recurrence is not None and self._reconstructed_tail is not None
        lag = self._recurrence.shape[0]
        buffer = np.concatenate([self._reconstructed_tail, np.zeros(n_points)])
        for step in range(n_points):
            window = buffer[step : step + lag]
            buffer[lag + step] = float(np.dot(self._recurrence, window))
        return buffer[lag:]
