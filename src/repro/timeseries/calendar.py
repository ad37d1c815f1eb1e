"""Calendar arithmetic on epoch-minute timestamps.

All timestamps in this reproduction are integers counting minutes since an
arbitrary epoch (minute zero is midnight on a Monday).  Using plain integer
minutes keeps the synthetic-telemetry substrate, the forecasting models and
the metric implementations free of timezone concerns while preserving the
structure the paper relies on: days, equivalent days of the week and weeks.
"""

from __future__ import annotations

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR
MINUTES_PER_WEEK = 7 * MINUTES_PER_DAY

#: Open-range sentinels for half-open ``[start_minute, end_minute)`` time
#: ranges: every valid epoch-minute timestamp satisfies
#: ``MIN_MINUTE <= ts < MAX_MINUTE``, so "no lower bound" is ``MIN_MINUTE``
#: and "no upper bound" is ``MAX_MINUTE``.  The storage layer (zone-map
#: pruning, CSV slicing, extract queries) shares these instead of
#: sprinkling ``1 << 62`` literals around.
MIN_MINUTE = -(1 << 62)
MAX_MINUTE = 1 << 62

#: Default sampling interval for PostgreSQL/MySQL telemetry (Section 2.2).
DEFAULT_INTERVAL_MINUTES = 5

#: Sampling interval for SQL database telemetry (Appendix A).
SQL_INTERVAL_MINUTES = 15

def day_index(timestamp: int) -> int:
    """Return the zero-based day number containing ``timestamp``."""
    return timestamp // MINUTES_PER_DAY


def week_index(timestamp: int) -> int:
    """Return the zero-based week number containing ``timestamp``."""
    return timestamp // MINUTES_PER_WEEK


def day_start(timestamp: int) -> int:
    """Return the first minute of the day containing ``timestamp``."""
    return day_index(timestamp) * MINUTES_PER_DAY


def week_start(timestamp: int) -> int:
    """Return the first minute of the week containing ``timestamp``."""
    return week_index(timestamp) * MINUTES_PER_WEEK


def minute_of_day(timestamp: int) -> int:
    """Return the minute offset of ``timestamp`` within its day (0..1439)."""
    return timestamp % MINUTES_PER_DAY


def day_bounds(day: int) -> tuple[int, int]:
    """Return the ``[start, end)`` minute interval of zero-based day ``day``."""
    start = day * MINUTES_PER_DAY
    return start, start + MINUTES_PER_DAY


def week_bounds(week: int) -> tuple[int, int]:
    """Return the ``[start, end)`` minute interval of zero-based week ``week``."""
    start = week * MINUTES_PER_WEEK
    return start, start + MINUTES_PER_WEEK


def points_per_day(interval_minutes: int = DEFAULT_INTERVAL_MINUTES) -> int:
    """Return the number of samples per day at the given interval."""
    if interval_minutes <= 0:
        raise ValueError("interval_minutes must be positive")
    if MINUTES_PER_DAY % interval_minutes:
        raise ValueError(
            f"interval_minutes={interval_minutes} does not evenly divide a day"
        )
    return MINUTES_PER_DAY // interval_minutes


def align_down(timestamp: int, interval_minutes: int) -> int:
    """Round ``timestamp`` down to the sampling grid."""
    return (timestamp // interval_minutes) * interval_minutes
