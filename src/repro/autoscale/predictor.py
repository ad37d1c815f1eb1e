"""24-hour-ahead load prediction for SQL databases (Appendix A.3).

For each database the predictor fits a model on one week of historical
load and forecasts the next 24 hours.  It records per-model training and
inference time (Figure 17) and evaluates the forecasts with Mean NRMSE and
MASE (Figure 16).

Fitted models are not held and invoked directly: each model comparison
deploys its per-database forecasters as one version into the unified
serving layer (region ``autoscale/<model>``) and obtains every forecast
through :class:`~repro.serving.service.PredictionService`.  Repeated
evaluations of an unchanged deployment are therefore answered from the
prediction cache, and each forecast carries its serving metadata
(version, latency, cache-hit flag).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.standard import mase, mean_nrmse
from repro.models.base import ForecastError, Forecaster
from repro.models.registry import create_forecaster
from repro.serving.service import PredictionService
from repro.timeseries.calendar import MINUTES_PER_DAY, points_per_day
from repro.timeseries.frame import LoadFrame
from repro.timeseries.series import LoadSeries

#: Serving-region prefix under which autoscale deployments are versioned.
AUTOSCALE_REGION_PREFIX = "autoscale/"


def autoscale_region(model_name: str) -> str:
    """Serving region that holds the autoscale deployments of one model."""
    return f"{AUTOSCALE_REGION_PREFIX}{model_name}"


@dataclass(frozen=True)
class DatabaseForecast:
    """Forecast and error metrics for one database."""

    database_id: str
    model_name: str
    forecast: LoadSeries
    nrmse: float
    mase: float
    fit_seconds: float
    inference_seconds: float
    #: Version of the serving deployment that answered, and whether the
    #: forecast came from the prediction cache.
    served_by_version: int = 0
    cache_hit: bool = False


@dataclass(frozen=True)
class ModelScore:
    """Fleet-level aggregation per model (one row of Figures 16/17)."""

    model_name: str
    n_databases: int
    mean_nrmse: float
    mean_mase: float
    total_fit_seconds: float
    total_inference_seconds: float

    def as_dict(self) -> dict[str, float]:
        return {
            "model_name": self.model_name,
            "n_databases": self.n_databases,
            "mean_nrmse": self.mean_nrmse,
            "mean_mase": self.mean_mase,
            "total_fit_seconds": self.total_fit_seconds,
            "total_inference_seconds": self.total_inference_seconds,
        }


@dataclass
class AutoscaleEvaluation:
    """All per-database forecasts plus the per-model summary."""

    forecasts: dict[str, list[DatabaseForecast]] = field(default_factory=dict)

    def score(self, model_name: str) -> ModelScore:
        entries = self.forecasts.get(model_name, [])
        nrmses = [f.nrmse for f in entries if not np.isnan(f.nrmse)]
        mases = [f.mase for f in entries if not np.isnan(f.mase)]
        return ModelScore(
            model_name=model_name,
            n_databases=len(entries),
            mean_nrmse=float(np.mean(nrmses)) if nrmses else float("nan"),
            mean_mase=float(np.mean(mases)) if mases else float("nan"),
            total_fit_seconds=sum(f.fit_seconds for f in entries),
            total_inference_seconds=sum(f.inference_seconds for f in entries),
        )

    def scores(self) -> list[ModelScore]:
        return [self.score(model_name) for model_name in sorted(self.forecasts)]


@dataclass(frozen=True)
class _FittedDatabase:
    """One database's fitted forecaster plus its evaluation context."""

    database_id: str
    forecaster: Forecaster
    history: LoadSeries
    truth: LoadSeries
    fit_seconds: float
    n_points: int


class AutoscalePredictor:
    """Runs the Appendix A forecasting comparison over a database fleet."""

    def __init__(self, training_days: int = 7) -> None:
        if training_days < 1:
            raise ValueError("training_days must be at least 1")
        self._training_days = training_days
        self._serving = PredictionService()

    @property
    def serving(self) -> PredictionService:
        """The serving layer forecasts are obtained through."""
        return self._serving

    # ------------------------------------------------------------------ #

    def _fit_database(
        self,
        database_id: str,
        series: LoadSeries,
        model_name: str,
        target_day: int,
    ) -> _FittedDatabase | None:
        """Fit one database's forecaster on the week preceding ``target_day``.

        Returns ``None`` when the database lacks history or the model
        cannot be fit (the paper simply skips such databases).
        """
        day_start = target_day * MINUTES_PER_DAY
        history = series.slice(day_start - self._training_days * MINUTES_PER_DAY, day_start)
        truth = series.day(target_day)
        if history.is_empty or truth.is_empty:
            return None
        forecaster = create_forecaster(model_name)
        try:
            forecaster.fit(history)
        except ForecastError:
            return None
        fit_seconds = forecaster.fit_result.fit_seconds if forecaster.fit_result else 0.0
        return _FittedDatabase(
            database_id=database_id,
            forecaster=forecaster,
            history=history,
            truth=truth,
            fit_seconds=fit_seconds,
            n_points=points_per_day(series.interval_minutes),
        )

    def _serve_deployment(
        self, model_name: str, trained_week: int, fitted: list[_FittedDatabase]
    ) -> list[DatabaseForecast]:
        """Deploy fitted forecasters as one version and serve every forecast."""
        if not fitted:
            return []
        region = autoscale_region(model_name)
        self._serving.deploy(
            region=region,
            model_name=model_name,
            trained_week=trained_week,
            forecasters={f.database_id: f.forecaster for f in fitted},
            notes=f"autoscale comparison over {len(fitted)} databases",
        )
        by_id = {f.database_id: f for f in fitted}
        results: list[DatabaseForecast] = []
        # Databases may need different horizon lengths (interval mixes);
        # group by horizon so each batch stays one serving call.
        horizons: dict[int, list[str]] = {}
        for f in fitted:
            horizons.setdefault(f.n_points, []).append(f.database_id)
        for n_points, database_ids in sorted(horizons.items()):
            batch = self._serving.predict_batch(
                region=region, n_points=n_points, server_ids=database_ids
            )
            for response in batch.responses:
                entry = by_id[response.server_id]
                forecast = response.series
                results.append(
                    DatabaseForecast(
                        database_id=entry.database_id,
                        model_name=model_name,
                        forecast=forecast,
                        nrmse=mean_nrmse(forecast, entry.truth),
                        mase=mase(forecast, entry.truth, training_true=entry.history),
                        fit_seconds=entry.fit_seconds,
                        inference_seconds=response.latency_seconds,
                        served_by_version=response.served_by_version,
                        cache_hit=response.cache_hit,
                    )
                )
        return results

    # ------------------------------------------------------------------ #

    def evaluate_fleet(
        self,
        frame: LoadFrame,
        model_names: Iterable[str],
    ) -> AutoscaleEvaluation:
        """Run the comparison for every database and model on each
        database's last covered day.

        Each model's fitted forecasters are deployed as **one** serving
        version covering the whole fleet, then served with batched
        requests.
        """
        evaluation = AutoscaleEvaluation()
        for model_name in model_names:
            fitted: list[_FittedDatabase] = []
            trained_week = 0
            for database_id, _, series in frame.items():
                if series.is_empty:
                    continue
                day = series.days()[-1]
                trained_week = max(trained_week, day // 7)
                entry = self._fit_database(database_id, series, model_name, day)
                if entry is not None:
                    fitted.append(entry)
            evaluation.forecasts[model_name] = self._serve_deployment(
                model_name, trained_week, fitted
            )
        return evaluation
