"""Forecasting models (Section 5.1).

The paper compares simple heuristics against ML models for predicting the
next day of per-server load:

* :mod:`~repro.models.persistent` -- the three persistent-forecast variants
  (previous day, previous equivalent day, previous-week average).
* :mod:`~repro.models.ssa` -- a Singular Spectrum Analysis forecaster, the
  stand-in for NimbusML's ``SsaForecaster``.  It takes the leading subspace
  from the top eigenvectors of the L x L lag-covariance X Xᵀ, which span the
  same subspace as the trajectory matrix's leading left singular vectors,
  so the recurrence is the SVD route's.  The forecast starts from the last
  L - 1 reconstructed points, and only the last L - 1 columns of X reach
  them, so only those columns are projected.
* :mod:`~repro.models.feedforward` -- a numpy feed-forward network, the
  stand-in for GluonTS's simple feed-forward estimator.
* :mod:`~repro.models.seasonal` -- an additive trend + seasonality model,
  the stand-in for Prophet.
* :mod:`~repro.models.arima` -- an ARIMA implementation with order search,
  kept to demonstrate why the paper excludes it on cost grounds.
* :mod:`~repro.models.registry` -- name-based model construction so any
  model can be "plugged in" to the pipeline (Section 2.1).
"""

from repro.models.base import FitResult, Forecaster, ForecastError
from repro.models.arima import ArimaForecaster
from repro.models.feedforward import FeedForwardForecaster
from repro.models.persistent import (
    PreviousDayForecaster,
    PreviousEquivalentDayForecaster,
    PreviousWeekAverageForecaster,
)
from repro.models.registry import MODEL_DISPLAY_NAMES, create_forecaster
from repro.models.seasonal import SeasonalAdditiveForecaster
from repro.models.ssa import SsaForecaster

__all__ = [
    "Forecaster",
    "FitResult",
    "ForecastError",
    "PreviousDayForecaster",
    "PreviousEquivalentDayForecaster",
    "PreviousWeekAverageForecaster",
    "SsaForecaster",
    "FeedForwardForecaster",
    "SeasonalAdditiveForecaster",
    "ArimaForecaster",
    "create_forecaster",
    "MODEL_DISPLAY_NAMES",
]
