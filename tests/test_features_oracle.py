"""The paper's feature definitions against brute-force references.

Each reference below is written from the production docstring and works
on a plain ``{minute: value}`` dict, one sample at a time: it shares no
code with ``LoadSeries`` slicing, shifting or alignment.  Generated
series carry what a lake scan's ``LoadSeries(validate=False)`` can hold:
gaps and whole missing days, starts away from midnight and on negative
days, histories shorter than ``min_days``, and timestamps off the
interval grid.  Shapes are constant, diurnal, weekly and random walks,
with noise that puts day-over-day ratios near the 0.90 threshold.

Labels, booleans and ratios must match exactly (``nan`` equals ``nan``);
averages to 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.classification import ServerClassLabel, classify_server
from repro.features.extractor import FeatureExtractionModule
from repro.features.patterns import (
    DayMatrix,
    day_over_day_bucket_ratio,
    has_daily_pattern,
    has_weekly_pattern,
    mean_ratio,
)
from repro.features.stability import is_stable, stability_bucket_ratio
from repro.metrics.bucket_ratio import ErrorBound
from repro.telemetry.fleet import default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator
from repro.timeseries.series import LoadSeries

DAY = 24 * 60
NAN = float("nan")
ORACLE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


# --------------------------------------------------------------------- #
# References
# --------------------------------------------------------------------- #


def ref_ratios(points, lag, over=10.0, under=5.0):
    """``{day: ratio}`` for every day with samples whose day ``day - lag``
    has samples: the share of the minutes present on both days (the
    reference moved ``lag`` days forward) where reference minus target
    lies in ``[-under, +over]``; ``nan`` when they share no minute."""
    days = {}
    for minute, value in points.items():
        days.setdefault(minute // DAY, {})[minute] = value
    ratios = {}
    for day in sorted(days):
        if day - lag in days:
            target, reference = days[day], days[day - lag]
            common = [m for m in target if m - lag * DAY in reference]
            inside = sum(-under <= reference[m - lag * DAY] - target[m] <= over for m in common)
            ratios[day] = inside / len(common) if common else NAN
    return ratios


def ref_conforms(points, lag, threshold=0.90, min_days=6):
    """At least ``min_days`` evaluable days, each with ratio >= threshold."""
    ratios = ref_ratios(points, lag)
    return len(ratios) >= min_days and all(r >= threshold for r in ratios.values())


def ref_weekly(points, threshold=0.90, min_days=6):
    """Definition 6: not daily, and every day predicted a week earlier."""
    return not ref_conforms(points, 1, threshold, min_days) and ref_conforms(
        points, 7, threshold, min_days
    )


def ref_strength(points, lag):
    """Average of the non-``nan`` day ratios at ``lag``; ``nan`` if none."""
    finite = [r for r in ref_ratios(points, lag).values() if not math.isnan(r)]
    return math.fsum(finite) / len(finite) if finite else NAN


def ref_stability(points):
    """Definition 4's ratio: the series mean predicting every sample."""
    if not points:
        return NAN
    mean = float(np.mean([points[m] for m in sorted(points)]))
    return sum(-5.0 <= mean - v <= 10.0 for v in points.values()) / len(points)


def ref_label(points, interval, threshold=0.90):
    """Section 3.2's decision order over Definitions 3-6."""
    lifespan = (max(points) - min(points) + interval) / DAY if points else 0.0
    if lifespan <= 21:
        return ServerClassLabel.SHORT_LIVED
    if ref_stability(points) >= threshold:
        return ServerClassLabel.STABLE
    if ref_conforms(points, 1, threshold):
        return ServerClassLabel.DAILY
    if ref_weekly(points, threshold):
        return ServerClassLabel.WEEKLY
    return ServerClassLabel.NO_PATTERN


def same(a, b, tol=0.0):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


# --------------------------------------------------------------------- #
# Generated series
# --------------------------------------------------------------------- #


def _shape(name, ts, rng):
    if name == "constant":
        return np.full(ts.size, 30.0)
    if name == "diurnal":
        return 35.0 + 25.0 * np.sin(2 * np.pi * (ts % DAY) / DAY)
    if name == "weekly":
        return np.where((ts // DAY) % 7 < 5, 60.0, 15.0)
    return 40.0 + np.cumsum(rng.normal(0.0, 1.5, ts.size))


@st.composite
def histories(draw):
    """``(points, series)``: the same samples as a dict and a ``LoadSeries``."""
    interval = draw(st.sampled_from([5, 15]))
    grid = draw(st.sampled_from(["regular", "regular", "one-minute", "irregular"]))
    n_days = draw(st.sampled_from([0, 3, 8, 22, 24, 26, 28, 30]))
    start = draw(st.integers(-3, 2)) * DAY + draw(st.sampled_from([0, 0, 3, 37 * interval, 725]))
    shape = draw(st.sampled_from(["constant", "diurnal", "weekly", "diurnal", "weekly", "walk"]))
    noise = draw(st.sampled_from([0.0, 0.5, 2.6, 2.8, 3.0]))
    drop = draw(st.sampled_from([0.0, 0.0, 0.002, 0.3]))
    lost_days = draw(st.sets(st.integers(0, 30), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if grid == "irregular":
        ts = start + np.cumsum(rng.integers(1, 2 * interval, n_days * DAY // interval + 1))
        ts = ts[ts < start + n_days * DAY]
    else:
        step = interval if grid == "regular" else 1
        ts = start + np.arange(0, n_days * DAY, step, dtype=np.int64)
    values = np.clip(_shape(shape, ts, rng) + rng.normal(0.0, noise, ts.size), 0, 100)
    keep = (rng.random(ts.size) >= drop) & ~np.isin(ts // DAY - start // DAY, list(lost_days))
    ts, values = ts[keep], values[keep]
    series = LoadSeries(ts, values, interval, validate=False)
    return dict(zip(ts.tolist(), values.tolist(), strict=True)), series


BOUNDS = st.sampled_from([(10.0, 5.0), (5.0, 5.0), (0.0, 0.0)])


# --------------------------------------------------------------------- #
# Production against the references
# --------------------------------------------------------------------- #


class TestPatternDefinitions:
    @ORACLE
    @given(histories(), st.sampled_from([1, 2, 7]), BOUNDS)
    def test_day_over_day_ratio(self, history, lag, bound):
        points, series = history
        expected = ref_ratios(points, lag, *bound)
        days = sorted({m // DAY for m in points})
        for day in range(days[0] - 1, days[-1] + 2) if days else [0]:
            got = day_over_day_bucket_ratio(series, day, lag, ErrorBound(*bound))
            assert same(got, expected.get(day, NAN)), (day, got, expected.get(day))

    @ORACLE
    @given(histories(), st.sampled_from([0.90, 0.75, 1.0]), st.integers(0, 8))
    def test_definitions_5_and_6(self, history, threshold, min_days):
        points, series = history
        daily = has_daily_pattern(series, threshold=threshold, min_days=min_days)
        weekly = has_weekly_pattern(series, threshold=threshold, min_days=min_days)
        assert daily is ref_conforms(points, 1, threshold, min_days)
        assert weekly is ref_weekly(points, threshold, min_days)
        assert not (daily and weekly)

    @ORACLE
    @given(histories(), st.sampled_from([1, 2, 7]))
    def test_mean_day_ratio(self, history, lag):
        points, series = history
        ratios = DayMatrix(series).ratios(lag, ErrorBound())[1]
        assert same(mean_ratio(ratios), ref_strength(points, lag), tol=1e-12)

    @ORACLE
    @given(histories())
    def test_stability_ratio(self, history):
        points, series = history
        ratio = ref_stability(points)
        assert same(stability_bucket_ratio(series), ratio)
        assert is_stable(series) is (ratio >= 0.90)

    @ORACLE
    @given(histories(), st.sampled_from([0.90, 0.75]))
    def test_classify_server(self, history, threshold):
        points, series = history
        label = classify_server(series, threshold=threshold)
        assert label is ref_label(points, series.interval_minutes, threshold)


def test_extract_frame_matches_oracle():
    frame = WorkloadGenerator(default_fleet_spec((12, 6), weeks=4, seed=11)).generate_fleet()
    features = FeatureExtractionModule().extract_frame(frame)
    labels = set()
    for server_id, _, series in frame.items():
        points = dict(zip(series.timestamps.tolist(), series.values.tolist(), strict=True))
        got = features[server_id]
        assert got.label is ref_label(points, series.interval_minutes)
        assert same(got.stability_ratio, ref_stability(points))
        assert same(got.daily_pattern_strength, ref_strength(points, 1), tol=1e-12)
        assert same(got.weekly_pattern_strength, ref_strength(points, 7), tol=1e-12)
        labels.add(got.label)
    assert len(labels) >= 3, labels


@pytest.mark.parametrize("lag", [1, 7])
def test_a_day_sharing_no_minute_is_nan(lag):
    # Two days with samples but no common minute of day: evaluable, no ratio.
    series = LoadSeries([0, 5, lag * DAY + 1, lag * DAY + 6], [1.0, 1.0, 1.0, 1.0], 5, validate=False)
    assert math.isnan(day_over_day_bucket_ratio(series, lag, lag))
    assert math.isnan(mean_ratio(DayMatrix(series).ratios(lag, ErrorBound())[1]))
    # ... and such a day is non-conforming, however low ``min_days`` is.
    conforms = has_daily_pattern if lag == 1 else has_weekly_pattern
    assert not conforms(series, min_days=1)
