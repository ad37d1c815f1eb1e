"""Stable servers (Definition 4) and stable databases (Definition 10).

A long-lived server is *stable* during a time interval when its load is
accurately predicted (bucket ratio >= 90% within the +10/-5 bound) by its
*average* load over that interval.  Appendix A uses a different rule for
SQL databases: a database is stable when its variation does not exceed one
standard deviation over the last three days.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
    bucket_ratio,
)
from repro.timeseries.series import LoadSeries


def stability_bucket_ratio(
    series: LoadSeries,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
) -> float:
    """Bucket ratio of the constant-mean prediction against the series."""
    if series.is_empty:
        return float("nan")
    mean_prediction = np.full(len(series), series.mean())
    return bucket_ratio(mean_prediction, series.values, bound)


def is_stable(
    series: LoadSeries,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
) -> bool:
    """Definition 4: the interval average accurately predicts the load."""
    ratio = stability_bucket_ratio(series, bound)
    if np.isnan(ratio):
        return False
    return ratio >= threshold


def is_stable_database(
    series: LoadSeries,
    evaluation_days: int = 3,
    n_std: float = 1.0,
) -> bool:
    """Definition 10 (Appendix A): variation over the last ``evaluation_days``
    days does not exceed ``n_std`` standard deviations of the full series.

    The variation of the recent window is measured as the maximum absolute
    deviation of recent samples from the overall series mean.
    """
    if series.is_empty:
        return False
    recent = series.last_days(evaluation_days)
    if recent.is_empty:
        return False
    overall_std = series.std()
    if overall_std == 0.0:
        return True
    deviation = np.max(np.abs(recent.values - series.mean()))
    return bool(deviation <= n_std * overall_std)
