"""Unit tests for NRMSE / MASE (Appendix A.2)."""

import numpy as np
import pytest

from repro.metrics.standard import (
    mase,
    mean_nrmse,
    prediction_error,
    rmse,
)

from tests.helpers import make_series


class TestPredictionError:
    def test_forecast_minus_true(self):
        error = prediction_error(np.array([3.0, 5.0]), np.array([1.0, 6.0]))
        assert error.tolist() == [2.0, -1.0]

    def test_series_alignment(self):
        forecast = make_series([1, 2, 3], start=0)
        true = make_series([1, 1], start=5)
        assert prediction_error(forecast, true).tolist() == [1.0, 2.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            prediction_error(np.array([1.0]), np.array([1.0, 2.0]))


class TestMeanNrmse:
    def test_perfect_forecast_is_zero(self):
        true = np.array([10.0, 20.0, 30.0])
        assert mean_nrmse(true, true) == pytest.approx(0.0)

    def test_mean_forecast_is_about_one(self):
        # Predicting the mean yields NRMSE = std/mean of the true series;
        # for this symmetric series that equals ~0.41, and scaling the
        # deviations up makes it exceed 1, the reference point the paper
        # cites.
        true = np.array([10.0, 30.0])
        forecast = np.array([20.0, 20.0])
        expected = np.sqrt(np.mean((forecast - true) ** 2)) / np.mean(true)
        assert mean_nrmse(forecast, true) == pytest.approx(expected)

    def test_zero_true_mean_is_nan(self):
        assert np.isnan(mean_nrmse(np.array([1.0]), np.array([0.0])))

    def test_empty_is_nan(self):
        a = make_series([1], start=0)
        b = make_series([1], start=100)
        assert np.isnan(mean_nrmse(a, b))


class TestMase:
    def test_naive_forecast_scores_one(self):
        true = np.array([1.0, 2.0, 3.0, 4.0])
        naive = np.array([0.0, 1.0, 2.0, 3.0])  # one-step-behind persistence
        assert mase(naive, true) == pytest.approx(1.0)

    def test_better_than_naive_is_below_one(self):
        true = np.array([1.0, 2.0, 3.0, 4.0])
        good = true + 0.1
        assert mase(good, true) < 1.0

    def test_training_series_scaling(self):
        true = np.array([10.0, 10.0, 10.0])
        forecast = np.array([11.0, 11.0, 11.0])
        training = np.array([0.0, 2.0, 0.0, 2.0])
        assert mase(forecast, true, training_true=training) == pytest.approx(0.5)

    def test_constant_true_without_training_is_nan(self):
        true = np.array([5.0, 5.0, 5.0])
        assert np.isnan(mase(true, true))

    def test_too_short_scale_series_is_nan(self):
        assert np.isnan(mase(np.array([1.0]), np.array([1.0])))


class TestAuxiliaryMetrics:
    def test_rmse(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))

    def test_empty_aux_metrics_nan(self):
        a = make_series([1], start=0)
        b = make_series([1], start=100)
        assert np.isnan(rmse(a, b))
