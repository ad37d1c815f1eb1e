"""Standard prediction-error metrics used by the auto-scale use case.

Appendix A.2 evaluates the 24-hour-ahead CPU forecasts of SQL databases
with Mean Normalized Root Mean Squared Error (Mean NRMSE) and Mean Absolute
Scaled Error (MASE):

* ``error = forecast - true``
* ``Mean NRMSE = sqrt(mean(error^2)) / mean(true)`` -- a value of 1 matches
  a forecast that always predicts the historical mean.
* ``MASE = mean(|error| / normalizing_factor)`` where the normalizing
  factor is the error of the one-step-ahead naive (persistence) forecast on
  the true series -- a value below 1 beats the naive forecast.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.series import LoadSeries


def _to_arrays(
    forecast: LoadSeries | np.ndarray, true: LoadSeries | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(forecast, LoadSeries) and isinstance(true, LoadSeries):
        return forecast.align_to(true)
    forecast_values = np.asarray(forecast, dtype=np.float64)
    true_values = np.asarray(true, dtype=np.float64)
    if forecast_values.shape != true_values.shape:
        raise ValueError("forecast and true arrays must have identical shapes")
    return forecast_values, true_values


def prediction_error(
    forecast: LoadSeries | np.ndarray, true: LoadSeries | np.ndarray
) -> np.ndarray:
    """Equation 1: pointwise ``forecast - true`` on the common grid."""
    forecast_values, true_values = _to_arrays(forecast, true)
    return forecast_values - true_values


def mean_nrmse(
    forecast: LoadSeries | np.ndarray, true: LoadSeries | np.ndarray
) -> float:
    """Equation 2: RMSE normalised by the mean of the true series.

    Returns ``nan`` when there are no comparable points or the true mean is
    zero (the metric is undefined for an all-idle trace).
    """
    forecast_values, true_values = _to_arrays(forecast, true)
    if forecast_values.size == 0:
        return float("nan")
    true_mean = float(np.mean(true_values))
    if true_mean == 0.0:
        return float("nan")
    rmse = float(np.sqrt(np.mean((forecast_values - true_values) ** 2)))
    return rmse / true_mean


def mase(
    forecast: LoadSeries | np.ndarray,
    true: LoadSeries | np.ndarray,
    training_true: LoadSeries | np.ndarray | None = None,
) -> float:
    """Equation 3: mean absolute error scaled by the naive-forecast error.

    The normalising factor is the mean absolute one-step difference of the
    true series (the error a one-step-ahead persistence forecast makes).
    When ``training_true`` is given the factor is computed on it, which is
    the textbook in-sample MASE; otherwise the evaluation series itself is
    used.
    """
    forecast_values, true_values = _to_arrays(forecast, true)
    if forecast_values.size == 0:
        return float("nan")
    if training_true is None:
        scale_values = true_values
    else:
        scale_source = (
            training_true.values if isinstance(training_true, LoadSeries) else training_true
        )
        scale_values = np.asarray(scale_source, dtype=np.float64)
    if scale_values.size < 2:
        return float("nan")
    naive_error = float(np.mean(np.abs(np.diff(scale_values))))
    if naive_error == 0.0:
        return float("nan")
    return float(np.mean(np.abs(forecast_values - true_values)) / naive_error)


def rmse(forecast: LoadSeries | np.ndarray, true: LoadSeries | np.ndarray) -> float:
    """Plain root mean squared error (used in diagnostics and ablations)."""
    forecast_values, true_values = _to_arrays(forecast, true)
    if forecast_values.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean((forecast_values - true_values) ** 2)))
