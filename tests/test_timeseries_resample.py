"""Unit tests for telemetry regularisation and resampling."""

import numpy as np
import pytest

from repro.timeseries.resample import regularize


class TestRegularize:
    def test_bucket_mean_aggregation(self):
        ts = np.array([0, 1, 2, 5, 6])
        vs = np.array([10.0, 20.0, 30.0, 40.0, 60.0])
        series = regularize(ts, vs, 5)
        assert series.timestamps.tolist() == [0, 5]
        assert series.values.tolist() == [20.0, 50.0]

    def test_unordered_input(self):
        ts = np.array([6, 0, 5, 1])
        vs = np.array([60.0, 10.0, 40.0, 20.0])
        series = regularize(ts, vs, 5)
        assert series.timestamps.tolist() == [0, 5]
        assert series.values.tolist() == [15.0, 50.0]

    def test_empty_input(self):
        series = regularize([], [], 5)
        assert series.is_empty
        assert series.interval_minutes == 5

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            regularize([0, 1], [1.0], 5)

    def test_gaps_are_not_filled(self):
        ts = np.array([0, 20])
        vs = np.array([1.0, 2.0])
        series = regularize(ts, vs, 5)
        assert series.timestamps.tolist() == [0, 20]
