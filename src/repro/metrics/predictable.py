"""Per-day evaluation (Definitions 2 and 8) and the predictable-server rule
(Definition 9).

Each backup day of a server is scored once: was the predicted lowest-load
window chosen correctly, and was the load in it predicted accurately?  A
long-lived server is *predictable* when, for the last three weeks, both held
on every evaluated day -- a fold over those per-day scores.  The online
backup scheduler only moves backups for predictable servers; everything
else keeps the default window (Section 2.3).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
    bucket_ratio,
    is_accurate_ratio,
)
from repro.metrics.ll_window import WindowSearchError, lowest_load_window
from repro.timeseries.series import LoadSeries

#: Definition 9 looks at the last three weeks of backup days.
DEFAULT_HISTORY_WEEKS = 3


@dataclass(frozen=True)
class PredictabilityVerdict:
    """Outcome of the Definition 9 check for one server."""

    server_id: str
    evaluated_days: tuple[int, ...]
    window_correct_days: tuple[int, ...]
    load_accurate_days: tuple[int, ...]
    required_days: int
    predictable: bool
    reason: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "server_id": self.server_id,
            "evaluated_days": list(self.evaluated_days),
            "window_correct_days": list(self.window_correct_days),
            "load_accurate_days": list(self.load_accurate_days),
            "required_days": self.required_days,
            "predictable": self.predictable,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ServerDayEvaluation:
    """Evaluation of one server on one (backup) day."""

    server_id: str
    day: int
    window_correct: bool
    load_accurate: bool
    bucket_ratio_in_window: float
    bucket_ratio_full_day: float
    predicted_window_start: int
    true_window_start: int
    predicted_window_load: float
    true_window_load: float
    evaluable: bool = True
    failure_reason: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "server_id": self.server_id,
            "day": self.day,
            "window_correct": self.window_correct,
            "load_accurate": self.load_accurate,
            "bucket_ratio_in_window": self.bucket_ratio_in_window,
            "bucket_ratio_full_day": self.bucket_ratio_full_day,
            "predicted_window_start": self.predicted_window_start,
            "true_window_start": self.true_window_start,
            "predicted_window_load": self.predicted_window_load,
            "true_window_load": self.true_window_load,
            "evaluable": self.evaluable,
            "failure_reason": self.failure_reason,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ServerDayEvaluation":
        """Inverse of :meth:`as_dict` (used by the artifact cache)."""
        return cls(
            server_id=str(payload["server_id"]),
            day=int(payload["day"]),
            window_correct=bool(payload["window_correct"]),
            load_accurate=bool(payload["load_accurate"]),
            bucket_ratio_in_window=float(payload["bucket_ratio_in_window"]),
            bucket_ratio_full_day=float(payload["bucket_ratio_full_day"]),
            predicted_window_start=int(payload["predicted_window_start"]),
            true_window_start=int(payload["true_window_start"]),
            predicted_window_load=float(payload["predicted_window_load"]),
            true_window_load=float(payload["true_window_load"]),
            evaluable=bool(payload["evaluable"]),
            failure_reason=str(payload["failure_reason"]),
        )


def evaluate_server_day(
    server_id: str,
    true_series: LoadSeries,
    predicted_series: LoadSeries,
    day: int,
    backup_duration_minutes: int,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    accuracy_threshold: float = DEFAULT_ACCURACY_THRESHOLD,
) -> ServerDayEvaluation:
    """Evaluate one server on one day (Definitions 2 and 8 combined).

    Each lowest-load window is searched once.  The window is chosen
    correctly when the true load during the predicted window is within the
    error bound of the true window's load -- exactly
    :func:`~repro.metrics.ll_window.is_window_correctly_chosen`, without
    searching both windows a second time.  A day either series cannot fit
    the window into is returned with ``evaluable=False``.
    """
    try:
        predicted_window = lowest_load_window(
            predicted_series, day, backup_duration_minutes
        )
        true_window = lowest_load_window(true_series, day, backup_duration_minutes)
    except WindowSearchError as exc:
        return ServerDayEvaluation(
            server_id=server_id,
            day=day,
            window_correct=False,
            load_accurate=False,
            bucket_ratio_in_window=float("nan"),
            bucket_ratio_full_day=float("nan"),
            predicted_window_start=-1,
            true_window_start=-1,
            predicted_window_load=float("nan"),
            true_window_load=float("nan"),
            evaluable=False,
            failure_reason=str(exc),
        )

    predicted_in_window = predicted_series.slice(predicted_window.start, predicted_window.end)
    true_in_window = true_series.slice(predicted_window.start, predicted_window.end)
    window_correct = bound.within(true_in_window.mean(), true_window.average_load)
    ratio_in_window = bucket_ratio(predicted_in_window, true_in_window, bound)

    ratio_full_day = bucket_ratio(
        predicted_series.day(day), true_series.day(day), bound
    )

    return ServerDayEvaluation(
        server_id=server_id,
        day=day,
        window_correct=window_correct,
        load_accurate=is_accurate_ratio(ratio_in_window, accuracy_threshold),
        bucket_ratio_in_window=ratio_in_window,
        bucket_ratio_full_day=ratio_full_day,
        predicted_window_start=predicted_window.start,
        true_window_start=true_window.start,
        predicted_window_load=predicted_window.average_load,
        true_window_load=true_window.average_load,
    )


def fold_predictability(
    server_id: str,
    evaluations: Iterable[ServerDayEvaluation],
    required_days: int = DEFAULT_HISTORY_WEEKS,
) -> PredictabilityVerdict:
    """Definition 9 as a fold over one server's per-day evaluations.

    A day counts as evaluated when it is ``evaluable``; the server is
    predictable when at least ``required_days`` days were evaluated and
    every one had a correctly chosen window and accurately predicted load.
    The reason for a day that lacks samples names the last such day.
    """
    evaluated: list[int] = []
    window_correct: list[int] = []
    load_accurate: list[int] = []
    reason = ""

    for evaluation in sorted(evaluations, key=lambda e: e.day):
        day = evaluation.day
        if not evaluation.evaluable:
            reason = f"day {day} lacks enough samples to evaluate"
            continue
        evaluated.append(day)
        if evaluation.window_correct:
            window_correct.append(day)
        if evaluation.load_accurate:
            load_accurate.append(day)

    enough_history = len(evaluated) >= required_days
    all_windows_correct = len(window_correct) == len(evaluated) and evaluated
    all_loads_accurate = len(load_accurate) == len(evaluated) and evaluated
    predictable = bool(enough_history and all_windows_correct and all_loads_accurate)

    if not enough_history and not reason:
        reason = (
            f"only {len(evaluated)} evaluable days, {required_days} required "
            "(server may be short-lived or have sparse telemetry)"
        )
    elif not predictable and not reason:
        failed_windows = len(evaluated) - len(window_correct)
        failed_loads = len(evaluated) - len(load_accurate)
        reason = (
            f"{failed_windows} day(s) with an incorrectly chosen window, "
            f"{failed_loads} day(s) with inaccurate load prediction"
        )

    return PredictabilityVerdict(
        server_id=server_id,
        evaluated_days=tuple(evaluated),
        window_correct_days=tuple(window_correct),
        load_accurate_days=tuple(load_accurate),
        required_days=required_days,
        predictable=predictable,
        reason=reason,
    )


def is_predictable_server(
    server_id: str,
    true_series: LoadSeries,
    predicted_series: LoadSeries,
    evaluation_days: Iterable[int],
    backup_duration_minutes: int,
    bound: ErrorBound = DEFAULT_ERROR_BOUND,
    accuracy_threshold: float = DEFAULT_ACCURACY_THRESHOLD,
    required_days: int = DEFAULT_HISTORY_WEEKS,
) -> PredictabilityVerdict:
    """Apply Definition 9 to one server: evaluate each day, then fold.

    Parameters
    ----------
    true_series / predicted_series:
        Observed and forecast load covering the evaluation days.
    evaluation_days:
        The (typically weekly) backup days of the last three weeks.
    backup_duration_minutes:
        Expected duration of a full backup of this server.
    required_days:
        Minimum number of evaluated days that must all pass; defaults to
        three (one backup day per week over three weeks).
    """
    evaluations = [
        evaluate_server_day(
            server_id,
            true_series,
            predicted_series,
            day,
            backup_duration_minutes,
            bound,
            accuracy_threshold,
        )
        for day in sorted(set(evaluation_days))
    ]
    return fold_predictability(server_id, evaluations, required_days)
