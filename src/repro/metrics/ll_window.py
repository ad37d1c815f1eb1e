"""Lowest-load windows (Definitions 7 and 8).

For a server due for full backup on day ``d`` with expected backup duration
``b``, the *true* lowest-load (LL) window is the length-``b`` interval of
day ``d`` whose average true load is minimal; the *predicted* LL window is
defined analogously on the predicted load.  The predicted window is chosen
*correctly* when the average true load during it is within the acceptable
error bound of the average true load during the true window -- i.e. the true
window would not have been a significantly better time to run the backup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.bucket_ratio import DEFAULT_ERROR_BOUND, ErrorBound
from repro.timeseries.series import LoadSeries


class WindowSearchError(ValueError):
    """Raised when a day does not contain enough samples to fit the window."""


@dataclass(frozen=True)
class LowestLoadWindow:
    """A candidate backup window: start minute, duration and average load."""

    start: int
    duration_minutes: int
    average_load: float

    @property
    def end(self) -> int:
        return self.start + self.duration_minutes

    def as_dict(self) -> dict[str, float]:
        return {
            "start": self.start,
            "end": self.end,
            "duration_minutes": self.duration_minutes,
            "average_load": self.average_load,
        }


def window_average_load(series: LoadSeries, start: int, duration_minutes: int) -> float:
    """Average load of ``series`` during ``[start, start + duration)``."""
    return series.window_average(start, duration_minutes)


def _sliding_window_means(values: np.ndarray, window_points: int) -> np.ndarray:
    """Means of every contiguous window of ``window_points`` samples."""
    cumulative = np.concatenate([[0.0], np.cumsum(values)])
    sums = cumulative[window_points:] - cumulative[:-window_points]
    return sums / window_points


def lowest_load_window(
    series: LoadSeries,
    day: int,
    duration_minutes: int,
) -> LowestLoadWindow:
    """Definition 7: the minimum-average window of length ``duration_minutes``.

    The search slides over the samples of day ``day`` in grid steps.  Ties
    are broken towards the earliest window, which keeps the result
    deterministic.

    Raises
    ------
    WindowSearchError
        If the day has fewer samples than the window needs.
    """
    if duration_minutes <= 0:
        raise ValueError("duration_minutes must be positive")
    day_series = series.day(day)
    interval = series.interval_minutes
    window_points = max(1, -(-duration_minutes // interval))
    if len(day_series) < window_points:
        raise WindowSearchError(
            f"day {day} has {len(day_series)} samples but the window needs {window_points}"
        )
    means = _sliding_window_means(day_series.values, window_points)
    best = int(np.argmin(means))
    start = int(day_series.timestamps[best])
    return LowestLoadWindow(
        start=start,
        duration_minutes=duration_minutes,
        average_load=float(means[best]),
    )


def predicted_and_true_windows(
    predicted: LoadSeries,
    true: LoadSeries,
    day: int,
    duration_minutes: int,
) -> tuple[LowestLoadWindow, LowestLoadWindow]:
    """Return the (predicted, true) LL windows of day ``day``."""
    predicted_window = lowest_load_window(predicted, day, duration_minutes)
    true_window = lowest_load_window(true, day, duration_minutes)
    return predicted_window, true_window


def is_window_correctly_chosen(
    predicted: LoadSeries,
    true: LoadSeries,
    day: int,
    duration_minutes: int,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
) -> bool:
    """Definition 8: the predicted window is correct when running the backup
    there is not significantly worse than running it in the true window.

    Concretely, the average *true* load during the predicted window must be
    within the acceptable error bound of the average true load during the
    true window.
    """
    predicted_window, true_window = predicted_and_true_windows(
        predicted, true, day, duration_minutes
    )
    true_load_in_predicted = window_average_load(
        true, predicted_window.start, duration_minutes
    )
    return bound.within(true_load_in_predicted, true_window.average_load)


def default_window_is_lowest(
    series: LoadSeries,
    default_start: int,
    day: int,
    duration_minutes: int,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
) -> bool:
    """Return whether the default backup window already coincides with the
    lowest-load window of ``day`` (up to the acceptable error bound).

    Figure 13(a) reports that 85.3% of default windows correspond to LL
    windows "by chance when default windows do not collide with high
    customer load"; this predicate reproduces that comparison.
    """
    true_window = lowest_load_window(series, day, duration_minutes)
    default_load = window_average_load(series, default_start, duration_minutes)
    if np.isnan(default_load):
        return False
    return bound.within(default_load, true_window.average_load)
