"""Pipeline configuration.

Section 2.4 distinguishes three levels of reuse: components that need no
changes, components that only need parameter updates, and components that
need major adjustments.  :class:`PipelineConfig` gathers the "parameter
update" knobs in one place so a new scenario can be onboarded by
constructing a different configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
)
from repro.metrics.predictable import DEFAULT_HISTORY_WEEKS
from repro.parallel.executor import ExecutionBackend
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of one Seagull pipeline deployment.

    Attributes
    ----------
    model_name:
        Registry name of the forecaster to train and deploy.
    interval_minutes:
        Telemetry granularity (5 for PostgreSQL/MySQL, 15 for SQL DBs).
    training_days:
        Days of history used to fit the model before each prediction day
        (the paper trains on one week, Section 5.3.1).
    horizon_days:
        How many days ahead the deployed version predicts (one backup day
        by default).
    history_weeks:
        Weeks of correct predictions required before a server is treated as
        predictable (Definition 9).
    error_bound / accuracy_threshold:
        The bucket-ratio parameters (Definitions 1 and 2).
    min_history_days:
        Servers with less history than this are not scored (the paper
        requires at least three days prior to the backup day).
    executor_backend / n_workers:
        How the accuracy evaluation is parallelised (Figure 12(b)).
    fallback_on_regression:
        Whether a deployment whose evaluated accuracy regresses below
        ``fallback_threshold_pct`` triggers a fallback to the previous
        known-good model version.
    """

    model_name: str = "persistent_previous_day"
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES
    training_days: int = 7
    horizon_days: int = 1
    history_weeks: int = DEFAULT_HISTORY_WEEKS
    error_bound: ErrorBound = DEFAULT_ERROR_BOUND
    accuracy_threshold: float = DEFAULT_ACCURACY_THRESHOLD
    min_history_days: int = 3
    executor_backend: ExecutionBackend = ExecutionBackend.SERIAL
    n_workers: int | None = None
    fallback_on_regression: bool = True
    fallback_threshold_pct: float = 80.0

    def __post_init__(self) -> None:
        if self.training_days < 1:
            raise ValueError("training_days must be at least 1")
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be at least 1")
        if self.history_weeks < 1:
            raise ValueError("history_weeks must be at least 1")
        if not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in (0, 1]")
        if self.min_history_days < 1:
            raise ValueError("min_history_days must be at least 1")

    def as_dict(self) -> dict[str, object]:
        return {
            "model_name": self.model_name,
            "interval_minutes": self.interval_minutes,
            "training_days": self.training_days,
            "horizon_days": self.horizon_days,
            "history_weeks": self.history_weeks,
            "over_tolerance": self.error_bound.over_tolerance,
            "under_tolerance": self.error_bound.under_tolerance,
            "accuracy_threshold": self.accuracy_threshold,
            "min_history_days": self.min_history_days,
            "executor_backend": self.executor_backend.value,
            "n_workers": self.n_workers,
            "fallback_on_regression": self.fallback_on_regression,
            "fallback_threshold_pct": self.fallback_threshold_pct,
        }

