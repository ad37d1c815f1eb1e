"""Unit tests for the Data Validation Module."""

import json

import numpy as np

from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries
from repro.validation.rules import (
    ValidationSeverity,
    check_bounds,
    check_coverage,
    check_duplicate_timestamps,
    check_finite,
    check_schema,
)
from repro.validation.schema import infer_properties
from repro.validation.validator import DataValidationModule

from tests.helpers import diurnal_series, make_series


def healthy_frame(n_servers=4) -> LoadFrame:
    frame = LoadFrame(5)
    for index in range(n_servers):
        frame.add_server(
            ServerMetadata(server_id=f"srv-{index}", region="r0"),
            diurnal_series(7, noise=0.5, seed=index),
        )
    return frame


class TestSchemaInference:
    def test_infer_properties_bounds(self):
        frame = healthy_frame()
        properties = infer_properties(frame)
        assert properties.load_min >= 0.0
        assert properties.load_max <= 100.0
        assert properties.interval_minutes == 5
        assert properties.columns == LoadFrame.CSV_HEADER

    def test_infer_on_empty_frame_defaults(self):
        properties = infer_properties(LoadFrame(5))
        assert properties.load_min == 0.0
        assert properties.load_max == 100.0


class TestRules:
    def test_schema_interval_mismatch(self):
        properties = infer_properties(healthy_frame())
        coarse = LoadFrame(15)
        coarse.add_server(ServerMetadata(server_id="x"), make_series([1.0], interval=15))
        issues = check_schema(coarse, properties)
        assert any(issue.rule == "schema.interval" for issue in issues)

    def test_schema_empty_frame(self):
        properties = infer_properties(healthy_frame())
        issues = check_schema(LoadFrame(5), properties)
        assert any(issue.rule == "schema.empty" for issue in issues)

    def test_schema_missing_data_warning(self):
        frame = healthy_frame(6)
        properties = infer_properties(frame)  # min_servers = 3
        small = frame.select(frame.server_ids()[:1])
        issues = check_schema(small, properties)
        assert any(issue.rule == "schema.missing_data" for issue in issues)

    def test_bound_anomaly_detected(self):
        frame = healthy_frame()
        properties = infer_properties(frame)
        bad = LoadFrame(5)
        bad.add_server(
            ServerMetadata(server_id="weird"),
            make_series(np.full(10, properties.load_max + 50.0)),
        )
        issues = check_bounds(bad, properties)
        assert issues and issues[0].severity is ValidationSeverity.ERROR

    def test_non_finite_detected(self):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="nanny"), make_series([1.0, np.nan, 2.0]))
        issues = check_finite(frame)
        assert issues and issues[0].rule == "values.non_finite"

    def test_duplicate_timestamps_detected(self):
        frame = LoadFrame(5)
        series = LoadSeries([0, 0, 5], [1.0, 1.0, 2.0], validate=False)
        frame.add_server(ServerMetadata(server_id="dup"), series)
        issues = check_duplicate_timestamps(frame)
        assert issues and issues[0].severity is ValidationSeverity.ERROR

    def test_sparse_coverage_warning(self):
        frame = LoadFrame(5)
        # Two points spanning two days -> very sparse.
        sparse = LoadSeries([0, 2880], [1.0, 2.0], validate=False)
        frame.add_server(ServerMetadata(server_id="sparse"), sparse)
        issues = check_coverage(frame)
        assert any(issue.rule == "coverage.sparse" for issue in issues)

    def test_empty_series_coverage_warning(self):
        frame = LoadFrame(5)
        frame.add_server(ServerMetadata(server_id="void"), LoadSeries.empty())
        issues = check_coverage(frame)
        assert any(issue.rule == "coverage.empty_series" for issue in issues)


class TestValidator:
    def test_healthy_frame_passes(self):
        module = DataValidationModule()
        report = module.validate(healthy_frame())
        assert report.passed
        assert report.n_servers == 4
        assert report.errors == ()

    def test_bootstrap_happens_automatically(self):
        module = DataValidationModule()
        assert module.properties is None
        module.validate(healthy_frame())
        assert module.properties is not None

    def test_validation_against_prior_properties(self):
        module = DataValidationModule()
        module.bootstrap(healthy_frame())
        # A later extract with values far outside the learned bounds fails.
        bad = LoadFrame(5)
        bad.add_server(ServerMetadata(server_id="hot"), make_series(np.full(10, 1000.0)))
        report = module.validate(bad)
        assert not report.passed

    def test_report_as_dict(self):
        report = DataValidationModule().validate(healthy_frame())
        payload = report.as_dict()
        assert payload["passed"] is True
        assert payload["n_servers"] == 4

    def test_report_as_dict_lists_each_issue_as_plain_json(self):
        module = DataValidationModule()
        module.bootstrap(healthy_frame())
        bad = LoadFrame(5)
        bad.add_server(ServerMetadata(server_id="hot"), make_series(np.full(10, 1000.0)))
        payload = module.validate(bad).as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["n_errors"] + payload["n_warnings"] == len(payload["issues"])
        bounds = [issue for issue in payload["issues"] if issue["server_id"] == "hot"]
        assert bounds and {issue["severity"] for issue in bounds} <= {"warning", "error"}
        assert "error" in {issue["severity"] for issue in payload["issues"]}
