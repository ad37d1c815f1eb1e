"""Server lifespan features (Definition 3).

A server is *long-lived* when it has existed for more than three weeks;
otherwise it is *short-lived* and excluded from prediction, because it has
not accumulated enough history to decide whether it is predictable.
"""

from __future__ import annotations

from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.series import LoadSeries

#: Definition 3: more than three weeks of existence makes a server long-lived.
DEFAULT_LIFESPAN_THRESHOLD_DAYS = 21


def lifespan_days(series: LoadSeries) -> float:
    """Observed lifespan of a server in days (span of its telemetry)."""
    if series.is_empty:
        return 0.0
    return series.span_minutes / MINUTES_PER_DAY


def is_long_lived(
    series: LoadSeries,
    threshold_days: int = DEFAULT_LIFESPAN_THRESHOLD_DAYS,
) -> bool:
    """Definition 3: the server existed for more than ``threshold_days`` days."""
    return lifespan_days(series) > threshold_days

