"""Forecaster interface shared by every model.

The pipeline's modularity requirement (Section 2.1: "any ML model can be
plugged in") translates here into a single abstract base class.  A model is
fit on a server's historical load and asked to predict a fixed number of
points immediately following the history; the prediction comes back as a
:class:`~repro.timeseries.series.LoadSeries` on the same grid, so every
metric and the backup scheduler can consume it unchanged.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro.timeseries.series import LoadSeries


class ForecastError(RuntimeError):
    """Raised when a model cannot be fit or cannot produce a forecast."""


class NotFittedError(ForecastError):
    """Raised when :meth:`Forecaster.predict` is called before :meth:`fit`."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting a model to one server's history."""

    model_name: str
    n_training_points: int
    fit_seconds: float
    details: dict[str, float] | None = None


class Forecaster(abc.ABC):
    """Base class for all load forecasters.

    Subclasses implement :meth:`_fit` and :meth:`_predict_values`; the base
    class handles bookkeeping (fit timing, grid construction, clipping to
    the valid CPU range).
    """

    #: Short machine name of the model (overridden by subclasses).
    name: str = "forecaster"

    #: Whether the model has a non-trivial training phase (persistent
    #: forecasts do not; Section 5.3.3).
    requires_training: bool = True

    def __init__(self) -> None:
        self._history: LoadSeries | None = None
        self._fit_result: FitResult | None = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def fit(self, history: LoadSeries) -> "Forecaster":
        """Fit the model on a server's historical load.

        The history must be non-empty; models document their own minimum
        history requirements (e.g. persistent forecast needs at least the
        lag it replicates).
        """
        if history.is_empty:
            raise ForecastError(f"{self.name}: cannot fit on an empty history")
        started = time.perf_counter()
        self._fit(history)
        elapsed = time.perf_counter() - started
        self._history = history
        self._fit_result = FitResult(
            model_name=self.name,
            n_training_points=len(history),
            fit_seconds=elapsed,
        )
        return self

    def predict(self, n_points: int) -> LoadSeries:
        """Predict ``n_points`` values immediately following the history."""
        if self._history is None:
            raise NotFittedError(f"{self.name}: fit() must be called before predict()")
        if n_points <= 0:
            raise ValueError("n_points must be positive")
        values = np.asarray(self._predict_values(n_points), dtype=np.float64)
        if values.shape != (n_points,):
            raise ForecastError(
                f"{self.name}: model produced {values.shape} values, expected ({n_points},)"
            )
        values = np.clip(values, 0.0, 100.0)
        start = self._history.end + self._history.interval_minutes
        return LoadSeries.from_values(values, start=start, interval_minutes=self._history.interval_minutes)

    @property
    def fit_result(self) -> FitResult | None:
        """Timing and metadata of the last :meth:`fit` call."""
        return self._fit_result

    @property
    def history(self) -> LoadSeries | None:
        """The history the model was last fit on."""
        return self._history

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _fit(self, history: LoadSeries) -> None:
        """Model-specific fitting."""

    @abc.abstractmethod
    def _predict_values(self, n_points: int) -> np.ndarray:
        """Model-specific forecasting of ``n_points`` values."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = "fitted" if self._history is not None else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {fitted})"
