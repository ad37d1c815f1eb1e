"""Unit tests for the preemptive auto-scale use case (Appendix A)."""

import json

import numpy as np
import pytest

from repro.autoscale.classification import classify_databases
from repro.autoscale.policy import (
    AutoscalePolicy,
    ScaleAction,
    capacity_headroom_histogram,
    pct_reaching_capacity,
)
from repro.autoscale.predictor import AutoscalePredictor
from repro.telemetry.fleet import sql_database_fleet_spec
from repro.telemetry.generator import WorkloadGenerator
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

from tests.helpers import make_series


@pytest.fixture(scope="module")
def sql_fleet() -> LoadFrame:
    spec = sql_database_fleet_spec(n_databases=40, weeks=4, seed=23)
    return WorkloadGenerator(spec).generate_fleet()


class TestDatabaseClassification:
    def test_classifies_every_database(self, sql_fleet):
        result = classify_databases(sql_fleet)
        assert result.n_databases == len(sql_fleet)
        assert set(result.stable_ids) | set(result.unstable_ids) == set(sql_fleet.server_ids())

    def test_percentages_sum_to_100(self, sql_fleet):
        result = classify_databases(sql_fleet)
        assert result.pct_stable + result.pct_unstable == pytest.approx(100.0)

    def test_some_but_not_all_databases_stable(self, sql_fleet):
        """Appendix A reports ~19% stable; the synthetic fleet should land in
        a broad band around that (neither zero nor everything)."""
        result = classify_databases(sql_fleet)
        assert 5.0 < result.pct_stable < 60.0

    def test_empty_fleet(self):
        result = classify_databases(LoadFrame(15))
        assert np.isnan(result.pct_stable)

    def test_as_dict(self, sql_fleet):
        payload = classify_databases(sql_fleet).as_dict()
        assert payload["n_databases"] == len(sql_fleet)


class TestAutoscalePredictor:
    def test_fleet_evaluation_produces_scores(self, sql_fleet):
        predictor = AutoscalePredictor(training_days=7)
        evaluation = predictor.evaluate_fleet(
            sql_fleet.select(sql_fleet.server_ids()[:8]),
            model_names=["persistent_previous_day", "ssa"],
        )
        scores = {score.model_name: score for score in evaluation.scores()}
        assert set(scores) == {"persistent_previous_day", "ssa"}
        for score in scores.values():
            assert score.n_databases > 0
            assert score.mean_nrmse >= 0 or np.isnan(score.mean_nrmse)

    def test_persistent_forecast_has_negligible_fit_cost(self, sql_fleet):
        predictor = AutoscalePredictor()
        evaluation = predictor.evaluate_fleet(
            sql_fleet.select(sql_fleet.server_ids()[:5]),
            model_names=["persistent_previous_day"],
        )
        score = evaluation.score("persistent_previous_day")
        assert score.total_fit_seconds < 1.0

    def test_database_without_history_is_skipped(self):
        frame = LoadFrame(15)
        frame.add_server(ServerMetadata("db", "sql"), make_series(np.full(10, 5.0), interval=15))
        evaluation = AutoscalePredictor().evaluate_fleet(frame, ["persistent_previous_day"])
        assert evaluation.forecasts["persistent_previous_day"] == []

    def test_invalid_training_days(self):
        with pytest.raises(ValueError):
            AutoscalePredictor(training_days=0)

    def test_forecast_metrics_finite_for_valid_database(self, sql_fleet):
        predictor = AutoscalePredictor()
        sid = next(
            sid for sid, md, s in sql_fleet.items() if md.true_class != "short_lived"
        )
        evaluation = predictor.evaluate_fleet(sql_fleet.select([sid]), ["persistent_previous_day"])
        [result] = evaluation.forecasts["persistent_previous_day"]
        assert len(result.forecast) == 96
        assert np.isfinite(result.nrmse) and np.isfinite(result.mase)


class TestAutoscalePolicy:
    def test_scale_up_on_high_predicted_peak(self):
        policy = AutoscalePolicy()
        forecast = make_series(np.full(96, 90.0), interval=15)
        recommendation = policy.recommend("db", forecast)
        assert recommendation.action is ScaleAction.SCALE_UP
        assert recommendation.headroom_pct == pytest.approx(10.0)

    def test_scale_down_on_low_peak(self):
        policy = AutoscalePolicy()
        forecast = make_series(np.full(96, 10.0), interval=15)
        assert policy.recommend("db", forecast).action is ScaleAction.SCALE_DOWN

    def test_hold_in_between(self):
        policy = AutoscalePolicy()
        forecast = make_series(np.full(96, 50.0), interval=15)
        assert policy.recommend("db", forecast).action is ScaleAction.HOLD

    def test_empty_forecast_holds(self):
        recommendation = AutoscalePolicy().recommend("db", LoadSeries.empty(15))
        assert recommendation.action is ScaleAction.HOLD
        assert np.isnan(recommendation.predicted_peak)

    def test_recommendation_as_dict_is_plain_json(self):
        forecast = make_series(np.full(96, 90.0), interval=15)
        payload = AutoscalePolicy().recommend("db", forecast).as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert (payload["database_id"], payload["action"]) == ("db", "scale_up")
        assert payload["predicted_peak"] == pytest.approx(90.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_up_threshold=20.0, scale_down_threshold=30.0)

    def test_fleet_recommendations_and_counts(self):
        policy = AutoscalePolicy()
        forecasts = {
            "hot": make_series(np.full(96, 95.0), interval=15),
            "cold": make_series(np.full(96, 5.0), interval=15),
        }
        recommendations = policy.recommend_fleet(forecasts)
        counts = policy.action_counts(recommendations)
        assert counts["scale_up"] == 1
        assert counts["scale_down"] == 1
        assert counts["hold"] == 0


class TestCapacityAnalysis:
    def test_histogram_sums_to_100(self, sql_fleet):
        histogram = capacity_headroom_histogram(sql_fleet)
        assert sum(histogram.values()) == pytest.approx(100.0)

    def test_pct_reaching_capacity_bounds(self, sql_fleet):
        pct = pct_reaching_capacity(sql_fleet)
        assert 0.0 <= pct <= 100.0

    def test_minority_of_servers_reach_capacity(self, small_fleet):
        """Figure 13(b): only a small minority of servers ever reach their
        CPU capacity within the observation window."""
        pct = pct_reaching_capacity(small_fleet)
        assert pct < 25.0

    def test_reaching_capacity_starts_at_99_percent(self):
        frame = LoadFrame(5)
        for server_id, peak in (("at", 99.0), ("below", 98.9)):
            frame.add_server(ServerMetadata(server_id), make_series([10.0, peak]))
        assert pct_reaching_capacity(frame) == pytest.approx(50.0)
        histogram = capacity_headroom_histogram(frame)
        assert histogram["80-99%"] == histogram["99-100%"] == pytest.approx(50.0)

    def test_empty_frame(self):
        assert capacity_headroom_histogram(LoadFrame(5)) == {}
        assert np.isnan(pct_reaching_capacity(LoadFrame(5)))
