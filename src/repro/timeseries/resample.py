"""Regularisation and resampling of raw telemetry.

Raw production telemetry (simulated by :mod:`repro.telemetry.raw_store`)
arrives at minute granularity with gaps and out-of-order rows.  The load
extraction query (Section 2.2) aggregates it to the average user CPU
percentage per five minutes.  This module provides that aggregation.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES
from repro.timeseries.series import LoadSeries


def regularize(
    timestamps: Iterable[int],
    values: Iterable[float],
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
) -> LoadSeries:
    """Aggregate irregular raw rows onto a regular grid by bucket mean.

    Rows are bucketed into ``interval_minutes`` bins aligned to the epoch,
    each bin's value is the mean of the raw values in it, and empty bins
    between the first and last observed bins are left out.
    """
    ts = np.asarray(list(timestamps) if not isinstance(timestamps, np.ndarray) else timestamps, dtype=np.int64)
    vs = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
    if ts.shape != vs.shape:
        raise ValueError("timestamps and values must have the same length")
    if ts.size == 0:
        return LoadSeries.empty(interval_minutes)

    buckets = (ts // interval_minutes) * interval_minutes
    order = np.argsort(buckets, kind="stable")
    buckets = buckets[order]
    vs = vs[order]

    unique_buckets, start_idx = np.unique(buckets, return_index=True)
    sums = np.add.reduceat(vs, start_idx)
    counts = np.diff(np.append(start_idx, vs.shape[0]))
    means = sums / counts
    return LoadSeries(unique_buckets, means, interval_minutes, validate=False)
