"""Acceptable error bound and bucket-ratio metric (Definitions 1 and 2).

The paper deliberately replaces generic statistical error measures with a
use-case-specific metric: the *bucket ratio* is the fraction of predicted
data points that fall within an asymmetric tolerance band around their true
counterparts.  The band tolerates up to ``+10`` percentage points of
over-prediction but only ``-5`` of under-prediction, because slightly
over-estimating a low-load period is harmless whereas under-estimating it
can schedule a backup into a busy period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timeseries.series import LoadSeries


@dataclass(frozen=True)
class ErrorBound:
    """Asymmetric acceptable error bound (Definition 1).

    A predicted point ``p`` is acceptable for a true point ``t`` when
    ``t - under_tolerance <= p <= t + over_tolerance``.
    """

    over_tolerance: float = 10.0
    under_tolerance: float = 5.0

    def __post_init__(self) -> None:
        if self.over_tolerance < 0 or self.under_tolerance < 0:
            raise ValueError("tolerances must be non-negative")

    def contains(self, predicted: np.ndarray, true: np.ndarray) -> np.ndarray:
        """Return a boolean mask of predicted points inside the band."""
        predicted = np.asarray(predicted, dtype=np.float64)
        true = np.asarray(true, dtype=np.float64)
        deviation = predicted - true
        return (deviation <= self.over_tolerance) & (deviation >= -self.under_tolerance)

    def within(self, predicted_value: float, true_value: float) -> bool:
        """Scalar convenience form of :meth:`contains`."""
        deviation = predicted_value - true_value
        return -self.under_tolerance <= deviation <= self.over_tolerance


#: The production bound used for the backup-scheduling use case (+10 / -5).
DEFAULT_ERROR_BOUND = ErrorBound(over_tolerance=10.0, under_tolerance=5.0)

#: Definition 2: a prediction is accurate when at least 90% of points are in bound.
DEFAULT_ACCURACY_THRESHOLD = 0.90


def bucket_ratio(
    predicted: LoadSeries | np.ndarray,
    true: LoadSeries | np.ndarray,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
) -> float:
    """Return the bucket ratio of ``predicted`` against ``true`` (Definition 1).

    When both arguments are :class:`LoadSeries` they are first aligned on
    their common timestamps; plain arrays are compared element-wise.  The
    ratio is ``nan`` when there are no comparable points.
    """
    if isinstance(predicted, LoadSeries) and isinstance(true, LoadSeries):
        predicted_values, true_values = predicted.align_to(true)
    else:
        predicted_values = np.asarray(predicted, dtype=np.float64)
        true_values = np.asarray(true, dtype=np.float64)
        if predicted_values.shape != true_values.shape:
            raise ValueError(
                "predicted and true arrays must have identical shapes; "
                "pass LoadSeries objects to align by timestamp instead"
            )
    if predicted_values.size == 0:
        return float("nan")
    inside = bound.contains(predicted_values, true_values)
    return float(np.count_nonzero(inside) / inside.size)


def is_accurate_prediction(
    predicted: LoadSeries | np.ndarray,
    true: LoadSeries | np.ndarray,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    threshold: float = DEFAULT_ACCURACY_THRESHOLD,
) -> bool:
    """Definition 2: prediction is accurate when the bucket ratio >= ``threshold``.

    An empty comparison (no overlapping points) is never accurate.
    """
    return is_accurate_ratio(bucket_ratio(predicted, true, bound), threshold)


def is_accurate_ratio(ratio: float, threshold: float = DEFAULT_ACCURACY_THRESHOLD) -> bool:
    """Definition 2 on a bucket ratio already computed; ``nan`` (no
    overlapping points) is never accurate."""
    return not np.isnan(ratio) and ratio >= threshold
