"""Unit tests for server classification (Section 3.2, Figure 3)."""

import numpy as np
import pytest

from repro.features.classification import (
    PREDICTABLE_LABELS,
    ClassificationResult,
    ServerClassLabel,
    classify_frame,
    classify_server,
)
from repro.timeseries.series import LoadSeries

from tests.helpers import POINTS_PER_DAY, diurnal_series, make_series, weekly_profile_series


class TestClassifyServer:
    def test_short_lived(self):
        assert classify_server(diurnal_series(10)) is ServerClassLabel.SHORT_LIVED

    def test_stable(self):
        rng = np.random.default_rng(1)
        series = make_series(np.clip(25 + rng.normal(0, 1.0, 28 * POINTS_PER_DAY), 0, 100))
        assert classify_server(series) is ServerClassLabel.STABLE

    def test_daily(self):
        assert classify_server(diurnal_series(28, noise=0.5, seed=2)) is ServerClassLabel.DAILY

    def test_weekly(self):
        assert classify_server(weekly_profile_series(28)) is ServerClassLabel.WEEKLY

    def test_no_pattern(self):
        rng = np.random.default_rng(9)
        values = np.clip(40 + np.cumsum(rng.normal(0, 2.0, 28 * POINTS_PER_DAY)), 0, 100)
        assert classify_server(LoadSeries.from_values(values)) is ServerClassLabel.NO_PATTERN

    def test_generated_classes_recovered(self, class_servers):
        # The synthetic generator's ground truth should be recovered by the
        # classifier for the unambiguous classes.
        assert classify_server(class_servers["stable"]) is ServerClassLabel.STABLE
        assert classify_server(class_servers["short_lived"]) is ServerClassLabel.SHORT_LIVED
        assert classify_server(class_servers["daily"]) in (
            ServerClassLabel.DAILY,
            ServerClassLabel.STABLE,
        )
        assert classify_server(class_servers["unstable"]) is ServerClassLabel.NO_PATTERN


class TestClassificationResult:
    def build(self):
        labels = {
            "a": ServerClassLabel.STABLE,
            "b": ServerClassLabel.STABLE,
            "c": ServerClassLabel.SHORT_LIVED,
            "d": ServerClassLabel.NO_PATTERN,
        }
        return ClassificationResult(labels=labels)

    def test_counts_and_percentages(self):
        result = self.build()
        assert result.count(ServerClassLabel.STABLE) == 2
        assert result.percentage(ServerClassLabel.STABLE) == pytest.approx(50.0)
        assert result.percentages()["short_lived"] == pytest.approx(25.0)

    def test_predictable_percentage(self):
        assert self.build().predictable_percentage() == pytest.approx(50.0)

    def test_servers_with(self):
        assert self.build().servers_with(ServerClassLabel.NO_PATTERN) == ["d"]

    def test_empty_result_is_nan(self):
        empty = ClassificationResult(labels={})
        assert np.isnan(empty.percentage(ServerClassLabel.STABLE))
        assert np.isnan(empty.predictable_percentage())

    def test_as_dict(self):
        payload = self.build().as_dict()
        assert payload["n_servers"] == 4
        assert "percentages" in payload

    def test_predictable_labels_constant(self):
        assert ServerClassLabel.STABLE in PREDICTABLE_LABELS
        assert ServerClassLabel.NO_PATTERN not in PREDICTABLE_LABELS


class TestClassifyFrame:
    def test_classifies_every_server(self, small_fleet):
        result = classify_frame(small_fleet)
        assert len(result.labels) == len(small_fleet)

    def test_fleet_mix_matches_generator_intent(self, small_fleet):
        """The classifier should broadly recover the generated class mix:
        most servers stable or short-lived, few pattern-free."""
        result = classify_frame(small_fleet)
        percentages = result.percentages()
        assert percentages["stable"] > 30.0
        assert percentages["short_lived"] > 20.0
        assert percentages["no_pattern"] < 25.0
