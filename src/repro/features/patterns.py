"""Daily and weekly activity patterns (Definitions 5 and 6).

A server has a *daily* pattern on day ``d`` when its load on ``d`` is
accurately predicted by its load on day ``d - 1``; it has a daily pattern
over an interval when every day in the interval conforms.  A *weekly*
pattern is defined the same way against day ``d - 7``, and only applies to
servers that do not already have a daily pattern.

Every answer here comes from one :class:`DayMatrix` per series: a row per
day that has samples, a column per cell of the day, the sample values and
a presence mask marking the cells that hold a sample.  Cells are ``step``
minutes wide, where ``step`` is the greatest common divisor of a day's
1440 minutes and every gap between consecutive timestamps.  So every
timestamp's minute of day has the same residue modulo ``step``, and two
timestamps share a cell only if they have the same minute of day -- for any
series, including a ``LoadSeries(validate=False)`` whose samples are off
its interval grid.  Moving day ``d - lag`` forward by ``lag`` days then maps
its cells onto day ``d``'s one for one, and the cells present in both rows
are exactly the timestamps both days hold.  A day's ratio at one lag is one
masked compare of two rows, and all days' ratios are one broadcast compare
and one masked count per row.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
)
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.series import LoadSeries

#: Fewest evaluable days a pattern is declared from; guards against one or
#: two lucky day pairs.
DEFAULT_MIN_DAYS = 6


def _rows(index: np.ndarray) -> np.ndarray | slice:
    """Ascending row numbers, as a slice (a view, no copy) when consecutive."""
    if index.size and index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


class DayMatrix:
    """A series laid out as (days with samples) x (cells of one day)."""

    __slots__ = ("days", "values", "present")

    def __init__(self, series: LoadSeries) -> None:
        timestamps = series.timestamps
        # Cell width: the gcd of a day and every gap between timestamps.
        step = math.gcd(int(np.gcd.reduce(np.diff(timestamps))), MINUTES_PER_DAY)
        width = MINUTES_PER_DAY // step
        day = timestamps // MINUTES_PER_DAY
        first = np.ones(day.size, dtype=bool)
        first[1:] = day[1:] != day[:-1]
        starts = np.flatnonzero(first)
        self.days = day[starts]
        # Flat index of each sample's cell: its row's offset plus its cell
        # (in place: a series-sized temporary less at the peak).
        cell = day * -MINUTES_PER_DAY
        del day
        cell += timestamps
        cell //= step
        cell += np.repeat(np.arange(starts.size) * width, np.diff(starts, append=cell.size))
        self.values = np.zeros((self.days.size, width))
        self.values.reshape(-1)[cell] = series.values
        self.present = np.zeros(self.values.shape, dtype=bool)
        self.present.reshape(-1)[cell] = True

    def ratios(self, lag_days: int, bound: ErrorBound) -> tuple[np.ndarray, np.ndarray]:
        """Evaluable days (ascending) and each one's bucket ratio at ``lag_days``.

        A day is evaluable when it has samples and day ``day - lag_days``
        has samples; its ratio is ``nan`` when the two share no timestamp.
        """
        wanted = self.days - lag_days
        reference = np.searchsorted(self.days, wanted)
        target = np.flatnonzero(self.days[reference] == wanted)
        reference = _rows(reference[target])
        days, target = self.days[target], _rows(target)
        common = self.present[target] & self.present[reference]
        inside = bound.contains(self.values[reference], self.values[target])
        inside &= common
        size = np.count_nonzero(common, axis=1)
        ratios = np.full(days.size, np.nan)
        np.divide(np.count_nonzero(inside, axis=1), size, out=ratios, where=size > 0)
        return days, ratios


def conforms(
    ratios: np.ndarray,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    min_days: int = DEFAULT_MIN_DAYS,
) -> bool:
    """At least ``min_days`` evaluable days, each accurately predicted
    (a ``nan`` ratio never is)."""
    return len(ratios) >= min_days and bool(np.all(ratios >= threshold))


def mean_ratio(ratios: np.ndarray) -> float:
    """Average of the non-``nan`` ratios, in day order; ``nan`` if none."""
    finite = ratios[~np.isnan(ratios)]
    return float(np.mean(finite)) if finite.size else float("nan")


def day_over_day_bucket_ratio(
    series: LoadSeries,
    day: int,
    lag_days: int,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
) -> float:
    """Bucket ratio of day ``day`` predicted by day ``day - lag_days``.

    The reference day's load is moved forward so the two days align on
    the same timestamps, exactly as persistent forecast would predict;
    only timestamps present on both days are compared.  Returns ``nan``
    when either day lacks samples or they share no timestamp.
    """
    if lag_days <= 0:
        raise ValueError("lag_days must be positive")
    days, ratios = DayMatrix(series).ratios(lag_days, bound)
    index = int(np.searchsorted(days, day))
    return float(ratios[index]) if index < days.size and days[index] == day else float("nan")


def has_daily_pattern(
    series: LoadSeries,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    min_days: int = DEFAULT_MIN_DAYS,
) -> bool:
    """Definition 5 over the whole series: every evaluable day is predicted
    by its previous day, over at least ``min_days`` evaluable days.
    """
    return conforms(DayMatrix(series).ratios(1, bound)[1], threshold, min_days)


def has_weekly_pattern(
    series: LoadSeries,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    min_days: int = DEFAULT_MIN_DAYS,
) -> bool:
    """Definition 6 over the whole series: the server does not have a daily
    pattern, and every evaluable day is predicted by the same weekday one
    week earlier.
    """
    matrix = DayMatrix(series)
    return not conforms(matrix.ratios(1, bound)[1], threshold, min_days) and conforms(
        matrix.ratios(7, bound)[1], threshold, min_days
    )
