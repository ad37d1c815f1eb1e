"""Persistent forecast (Section 5.1).

Persistent forecast replicates previously seen load as the forecast.  The
paper compares three variants and deploys the previous-day variant to
production (Section 5.4):

* *previous week average* -- predict the server's average load over the
  previous week (suits stable servers, Definition 4);
* *previous equivalent day* -- replicate the load of the same weekday one
  week ago (captures weekly patterns, Definition 6);
* *previous day* -- replicate yesterday's load (captures daily patterns,
  Definition 5, and covers the largest share of servers).

None of these require training, which is why persistent forecast "does not
introduce any computational delay due to training and thus scales better
than other models".
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Forecaster, ForecastError
from repro.timeseries.calendar import MINUTES_PER_DAY, MINUTES_PER_WEEK, points_per_day
from repro.timeseries.series import LoadSeries


class _PersistentBase(Forecaster):
    """Shared logic: no training, replicate a reference slice of history."""

    requires_training = False

    #: Lag (in minutes) of the reference slice replicated into the future.
    lag_minutes: int = MINUTES_PER_DAY

    def _fit(self, history: LoadSeries) -> None:
        minimum = self.lag_minutes // history.interval_minutes
        if len(history) < minimum:
            raise ForecastError(
                f"{self.name}: needs at least {minimum} points "
                f"({self.lag_minutes} minutes) of history, got {len(history)}"
            )

    def _reference_values(self, n_points: int) -> np.ndarray:
        """Values of the history slice that gets replicated forward."""
        assert self._history is not None
        history = self._history
        interval = history.interval_minutes
        horizon_start = history.end + interval
        reference_start = horizon_start - self.lag_minutes
        reference = history.slice(reference_start, reference_start + n_points * interval)
        values = reference.values
        if values.shape[0] == 0:
            raise ForecastError(f"{self.name}: no history in the reference window")
        if values.shape[0] < n_points:
            # The reference window is shorter than the horizon (for example a
            # 2-day forecast from the previous-day variant): tile it.
            repeats = -(-n_points // values.shape[0])
            values = np.tile(values, repeats)
        return values[:n_points].astype(np.float64, copy=True)

    def _predict_values(self, n_points: int) -> np.ndarray:
        return self._reference_values(n_points)


class PreviousDayForecaster(_PersistentBase):
    """Replicate yesterday's load as today's forecast (deployed variant)."""

    name = "persistent_previous_day"
    lag_minutes = MINUTES_PER_DAY


class PreviousEquivalentDayForecaster(_PersistentBase):
    """Replicate the load of the same weekday one week earlier."""

    name = "persistent_previous_equivalent_day"
    lag_minutes = MINUTES_PER_WEEK


class PreviousWeekAverageForecaster(Forecaster):
    """Predict the average load of the previous week for every future point."""

    name = "persistent_previous_week_average"
    requires_training = False

    def __init__(self) -> None:
        super().__init__()
        self._weekly_mean: float = float("nan")

    def _fit(self, history: LoadSeries) -> None:
        points_day = points_per_day(history.interval_minutes)
        if len(history) < points_day:
            raise ForecastError(
                f"{self.name}: needs at least one day of history, got {len(history)} points"
            )
        last_week = history.last_days(7)
        self._weekly_mean = last_week.mean()

    def _predict_values(self, n_points: int) -> np.ndarray:
        return np.full(n_points, self._weekly_mean, dtype=np.float64)
