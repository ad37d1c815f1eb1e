"""Property-based tests (hypothesis) on the core data structures and metrics.

These verify the invariants the rest of the system relies on: bucket ratio
bounds and monotonicity, lowest-load-window minimality, round-trip
serialisation, resampling conservation, and partitioning completeness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.bucket_ratio import DEFAULT_ERROR_BOUND, ErrorBound, bucket_ratio
from repro.metrics.ll_window import lowest_load_window
from repro.metrics.standard import mean_nrmse
from repro.parallel.partition import chunk_evenly, partition_list
from repro.storage import csv_io
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.resample import regularize
from repro.timeseries.series import LoadSeries

# Strategy helpers -------------------------------------------------------- #

loads = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32)


def load_arrays(min_size=1, max_size=600):
    return st.lists(loads, min_size=min_size, max_size=max_size).map(
        lambda values: np.asarray(values, dtype=np.float64)
    )


# Bucket ratio ------------------------------------------------------------ #


class TestBucketRatioProperties:
    @given(load_arrays())
    @settings(max_examples=60, deadline=None)
    def test_ratio_is_between_zero_and_one(self, values):
        noise = np.linspace(-20, 20, values.shape[0])
        ratio = bucket_ratio(values + noise, values)
        assert 0.0 <= ratio <= 1.0

    @given(load_arrays())
    @settings(max_examples=60, deadline=None)
    def test_perfect_prediction_scores_one(self, values):
        assert bucket_ratio(values, values) == 1.0

    @given(load_arrays(), st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_wider_bound_never_lowers_ratio(self, values, extra):
        predicted = values + np.linspace(-15, 15, values.shape[0])
        narrow = bucket_ratio(predicted, values, DEFAULT_ERROR_BOUND)
        wide_bound = ErrorBound(
            over_tolerance=DEFAULT_ERROR_BOUND.over_tolerance + extra,
            under_tolerance=DEFAULT_ERROR_BOUND.under_tolerance + extra,
        )
        wide = bucket_ratio(predicted, values, wide_bound)
        assert wide >= narrow

    @given(load_arrays(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_over_prediction_within_ten_is_always_accepted(self, values, shift):
        assert bucket_ratio(values + shift, values) == 1.0


# Lowest-load window ------------------------------------------------------ #


class TestLowestLoadWindowProperties:
    @given(
        st.lists(loads, min_size=288, max_size=288),
        st.sampled_from([30, 60, 90, 120]),
    )
    @settings(max_examples=40, deadline=None)
    def test_window_is_minimal_over_all_candidates(self, values, duration):
        series = LoadSeries.from_values(np.asarray(values), interval_minutes=5)
        window = lowest_load_window(series, 0, duration)
        window_points = duration // 5
        candidate_means = [
            float(np.mean(np.asarray(values)[i : i + window_points]))
            for i in range(0, 288 - window_points + 1)
        ]
        assert window.average_load <= min(candidate_means) + 1e-9

    @given(st.lists(loads, min_size=288, max_size=288))
    @settings(max_examples=40, deadline=None)
    def test_window_lies_within_the_day(self, values):
        series = LoadSeries.from_values(np.asarray(values), interval_minutes=5)
        window = lowest_load_window(series, 0, 60)
        assert window.start >= 0
        assert window.end <= MINUTES_PER_DAY


# Series and resampling --------------------------------------------------- #


class TestSeriesProperties:
    @given(load_arrays(min_size=2, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_slice_concat_roundtrip(self, values):
        series = LoadSeries.from_values(values, interval_minutes=5)
        split_at = series.start + (len(series) // 2) * 5
        left = series.slice(series.start, split_at)
        right = series.slice(split_at, series.end + 5)
        if left.is_empty or right.is_empty:
            return
        assert left.concat(right) == series

    @given(load_arrays(min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_regularize_to_a_coarser_grid_preserves_mean(self, values):
        # Pad to a multiple of 3 so every coarse bucket is full.
        pad = (-values.shape[0]) % 3
        if pad:
            values = np.concatenate([values, np.repeat(values[-1], pad)])
        series = LoadSeries.from_values(values, interval_minutes=5)
        coarse = regularize(series.timestamps, series.values, 15)
        assert np.isclose(coarse.mean(), series.mean())

    @given(load_arrays(min_size=2, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_regularize_lands_on_the_grid(self, values):
        timestamps = np.arange(values.shape[0]) * 7  # irregular vs 5-minute grid
        series = regularize(timestamps, values, 5)
        assert np.all(series.timestamps % 5 == 0)
        assert np.all(np.diff(series.timestamps) > 0)

    @given(load_arrays(min_size=1, max_size=200), st.integers(min_value=-5000, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_shift_is_reversible(self, values, offset):
        series = LoadSeries.from_values(values, interval_minutes=5)
        assert series.shift(offset).shift(-offset) == series


# Frame round trip --------------------------------------------------------- #


class TestFrameProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_csv_text_roundtrip(self, n_servers, n_points, seed):
        rng = np.random.default_rng(seed)
        frame = LoadFrame(5)
        for index in range(n_servers):
            frame.add_server(
                ServerMetadata(server_id=f"s{index}", region=f"r{index % 2}"),
                LoadSeries.from_values(rng.uniform(0, 100, n_points), interval_minutes=5),
            )
        text = csv_io.frame_to_csv_text(frame)
        rebuilt = csv_io.frame_from_csv_text(text)
        assert rebuilt.server_ids() == frame.server_ids()
        for sid in frame.server_ids():
            np.testing.assert_allclose(rebuilt.series(sid).values, frame.series(sid).values)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_partition_is_complete_and_disjoint(self, n_servers, n_partitions):
        frame = LoadFrame(5)
        for index in range(n_servers):
            frame.add_server(
                ServerMetadata(server_id=f"s{index}"),
                LoadSeries.from_values([float(index)], interval_minutes=5),
            )
        parts = frame.partition(n_partitions)
        seen = [sid for part in parts for sid in part.server_ids()]
        assert sorted(seen) == sorted(frame.server_ids())
        assert len(seen) == len(set(seen))


# Partitioning helpers ----------------------------------------------------- #


class TestPartitionProperties:
    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=64))
    @settings(max_examples=80, deadline=None)
    def test_chunks_cover_range_without_overlap(self, n_items, n_chunks):
        ranges = chunk_evenly(n_items, n_chunks)
        covered = [i for start, end in ranges for i in range(start, end)]
        assert covered == list(range(n_items))

    @given(st.lists(st.integers(), max_size=200), st.integers(min_value=1, max_value=16))
    @settings(max_examples=80, deadline=None)
    def test_partition_list_preserves_order(self, items, n_partitions):
        parts = partition_list(items, n_partitions)
        flattened = [x for part in parts for x in part]
        assert flattened == items


# Standard metrics --------------------------------------------------------- #


class TestStandardMetricProperties:
    @given(load_arrays(min_size=2, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_nrmse_non_negative(self, values):
        forecast = values + np.linspace(-5, 5, values.shape[0])
        score = mean_nrmse(forecast, values)
        assert np.isnan(score) or score >= 0.0
