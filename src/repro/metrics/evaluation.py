"""Accuracy Evaluation Module (Sections 2.2, 4 and 6.1).

Given true and predicted load per server, this module evaluates, per server
and per backup day, whether the lowest-load window was chosen correctly and
whether the load during that window was predicted accurately (the per-day
check, :func:`~repro.metrics.predictable.evaluate_server_day`).  It can run
single-threaded or partitioned per server on a parallel executor -- the
comparison plotted in Figure 12(b).  Predictability verdicts and the fleet
summary are folds over those per-day evaluations; nothing is scored twice.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
)
from repro.metrics.predictable import (
    DEFAULT_HISTORY_WEEKS,
    PredictabilityVerdict,
    ServerDayEvaluation,
    evaluate_server_day,
    fold_predictability,
)
from repro.parallel.executor import PartitionedExecutor
from repro.parallel.partition import partition_list
from repro.timeseries.frame import LoadFrame
from repro.timeseries.series import LoadSeries


@dataclass(frozen=True)
class EvaluationSummary:
    """Fleet-level aggregation of per-server-day evaluations.

    These are the three metrics reported throughout Section 5: the
    percentage of correctly chosen LL windows, the percentage of LL windows
    with accurately predicted load, and the percentage of predictable
    servers.
    """

    n_server_days: int
    n_evaluable: int
    pct_windows_correct: float
    pct_load_accurate: float
    pct_predictable_servers: float
    n_servers: int
    n_predictable_servers: int

    def as_dict(self) -> dict[str, float]:
        return {
            "n_server_days": self.n_server_days,
            "n_evaluable": self.n_evaluable,
            "pct_windows_correct": self.pct_windows_correct,
            "pct_load_accurate": self.pct_load_accurate,
            "pct_predictable_servers": self.pct_predictable_servers,
            "n_servers": self.n_servers,
            "n_predictable_servers": self.n_predictable_servers,
        }


def _evaluate_task(task: tuple) -> list[ServerDayEvaluation]:
    """Module-level worker so the process-pool backend can pickle it."""
    (
        server_id,
        true_series,
        predicted_series,
        days,
        duration,
        bound,
        threshold,
    ) = task
    return [
        evaluate_server_day(
            server_id, true_series, predicted_series, day, duration, bound, threshold
        )
        for day in days
    ]


class AccuracyEvaluationModule:
    """Evaluates predictions for a whole fleet, serially or in parallel."""

    def __init__(
        self,
        bound: ErrorBound = DEFAULT_ERROR_BOUND,
        accuracy_threshold: float = DEFAULT_ACCURACY_THRESHOLD,
        executor: PartitionedExecutor | None = None,
    ) -> None:
        self._bound = bound
        self._threshold = accuracy_threshold
        self._executor = executor if executor is not None else PartitionedExecutor.serial()

    @property
    def executor(self) -> PartitionedExecutor:
        return self._executor

    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        true_frame: LoadFrame,
        predictions: Mapping[str, LoadSeries],
        days_by_server: Mapping[str, Iterable[int]],
        n_partitions: int | None = None,
    ) -> list[ServerDayEvaluation]:
        """Evaluate every (server, day) pair.

        Parameters
        ----------
        true_frame:
            Observed load per server.
        predictions:
            Predicted load per server (may cover one or several days).
        days_by_server:
            Which days to evaluate per server, typically the backup day
            (Figure 12(b) left group) or every day one week ahead
            (Figure 12(b) right group).
        n_partitions:
            Number of per-server partitions handed to the executor;
            defaults to the executor's worker count.
        """
        tasks = []
        for server_id in true_frame.server_ids():
            if server_id not in predictions or server_id not in days_by_server:
                continue
            days = sorted(set(days_by_server[server_id]))
            if not days:
                continue
            tasks.append(
                (
                    server_id,
                    true_frame.series(server_id),
                    predictions[server_id],
                    days,
                    true_frame.metadata(server_id).backup_duration_minutes,
                    self._bound,
                    self._threshold,
                )
            )
        if not tasks:
            return []
        partitions = partition_list(
            tasks, n_partitions if n_partitions is not None else self._executor.n_workers
        )
        nested = self._executor.map(_evaluate_batch, partitions)
        results: list[ServerDayEvaluation] = []
        for chunk in nested:
            results.extend(chunk)
        return results

    def summarize(
        self,
        evaluations: Iterable[ServerDayEvaluation],
        required_days: int = DEFAULT_HISTORY_WEEKS,
    ) -> EvaluationSummary:
        """Aggregate evaluations into the three fleet-level percentages."""
        evaluations = list(evaluations)
        evaluable = [e for e in evaluations if e.evaluable]
        n_windows_correct = sum(1 for e in evaluable if e.window_correct)
        n_load_accurate = sum(1 for e in evaluable if e.load_accurate)
        verdicts = self.predictability(evaluations, required_days)
        n_predictable = sum(1 for verdict in verdicts.values() if verdict.predictable)
        n_servers = len(verdicts)
        return EvaluationSummary(
            n_server_days=len(evaluations),
            n_evaluable=len(evaluable),
            pct_windows_correct=_percentage(n_windows_correct, len(evaluable)),
            pct_load_accurate=_percentage(n_load_accurate, len(evaluable)),
            pct_predictable_servers=_percentage(n_predictable, n_servers),
            n_servers=n_servers,
            n_predictable_servers=n_predictable,
        )

    def predictability(
        self,
        evaluations: Iterable[ServerDayEvaluation],
        required_days: int = DEFAULT_HISTORY_WEEKS,
    ) -> dict[str, PredictabilityVerdict]:
        """Apply Definition 9 per server: fold each server's evaluations
        (as :meth:`evaluate` returned them) into its verdict."""
        per_server: dict[str, list[ServerDayEvaluation]] = {}
        for evaluation in evaluations:
            per_server.setdefault(evaluation.server_id, []).append(evaluation)
        return {
            server_id: fold_predictability(server_id, server_evals, required_days)
            for server_id, server_evals in per_server.items()
        }


def _evaluate_batch(batch: list[tuple]) -> list[ServerDayEvaluation]:
    """Evaluate a partition of tasks (module-level for picklability)."""
    results: list[ServerDayEvaluation] = []
    for task in batch:
        results.extend(_evaluate_task(task))
    return results


def _percentage(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return float("nan")
    return 100.0 * numerator / denominator
