"""Prediction-accuracy metrics (Sections 3.1, 4 and Appendix A.2).

* :mod:`~repro.metrics.bucket_ratio` -- the acceptable error bound and
  bucket-ratio metric (Definitions 1 and 2).
* :mod:`~repro.metrics.ll_window` -- lowest-load windows and the
  correctly-chosen-window metric (Definitions 7 and 8).
* :mod:`~repro.metrics.predictable` -- the per-day evaluation and the
  predictable-server rule folded from it (Definition 9: three weeks of
  correct windows and accurate load).
* :mod:`~repro.metrics.standard` -- Mean NRMSE and MASE used by the
  auto-scale use case (Appendix A.2).
* :mod:`~repro.metrics.evaluation` -- the Accuracy Evaluation Module of the
  pipeline, with serial and parallel (per-server partitioned) execution.
"""

from repro.metrics.bucket_ratio import (
    DEFAULT_ACCURACY_THRESHOLD,
    DEFAULT_ERROR_BOUND,
    ErrorBound,
    bucket_ratio,
    is_accurate_prediction,
)
from repro.metrics.ll_window import (
    LowestLoadWindow,
    is_window_correctly_chosen,
    lowest_load_window,
    window_average_load,
)
from repro.metrics.predictable import PredictabilityVerdict, is_predictable_server
from repro.metrics.standard import mase, mean_nrmse, prediction_error
from repro.metrics.evaluation import (
    AccuracyEvaluationModule,
    ServerDayEvaluation,
    EvaluationSummary,
)

__all__ = [
    "ErrorBound",
    "DEFAULT_ERROR_BOUND",
    "DEFAULT_ACCURACY_THRESHOLD",
    "bucket_ratio",
    "is_accurate_prediction",
    "LowestLoadWindow",
    "lowest_load_window",
    "window_average_load",
    "is_window_correctly_chosen",
    "PredictabilityVerdict",
    "is_predictable_server",
    "prediction_error",
    "mean_nrmse",
    "mase",
    "AccuracyEvaluationModule",
    "ServerDayEvaluation",
    "EvaluationSummary",
]
