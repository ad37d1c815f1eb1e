"""Individual data-validation rules.

Each rule inspects an extract against the inferred :class:`DataProperties`
and emits :class:`ValidationIssue` records.  The paper cites schema and
bound anomaly detection as the implemented rules (Section 2.2); this module
adds the closely related checks that the same machinery naturally covers:
missing input data, sparse telemetry, duplicate timestamps and non-finite
values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.timeseries.calendar import MINUTES_PER_WEEK
from repro.timeseries.frame import LoadFrame
from repro.validation.schema import DataProperties


class ValidationSeverity(enum.Enum):
    """Severity of a validation issue."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in an extract."""

    rule: str
    severity: ValidationSeverity
    message: str
    server_id: str = ""

    def as_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "server_id": self.server_id,
        }


#: Tolerance added around the inferred load bounds before flagging values.
BOUND_SLACK = 5.0

#: Minimum fraction of a week a long week-extract should cover per server
#: before a sparsity warning is emitted.
MIN_COVERAGE_FRACTION = 0.5


def check_schema(frame: LoadFrame, properties: DataProperties) -> list[ValidationIssue]:
    """Schema anomaly detection: sampling interval and emptiness."""
    issues: list[ValidationIssue] = []
    if frame.interval_minutes != properties.interval_minutes:
        issues.append(
            ValidationIssue(
                rule="schema.interval",
                severity=ValidationSeverity.ERROR,
                message=(
                    f"extract interval {frame.interval_minutes}m does not match the "
                    f"expected {properties.interval_minutes}m"
                ),
            )
        )
    if len(frame) == 0:
        issues.append(
            ValidationIssue(
                rule="schema.empty",
                severity=ValidationSeverity.ERROR,
                message="extract contains no servers",
            )
        )
    elif len(frame) < properties.min_servers:
        issues.append(
            ValidationIssue(
                rule="schema.missing_data",
                severity=ValidationSeverity.WARNING,
                message=(
                    f"extract has only {len(frame)} servers, expected at least "
                    f"{properties.min_servers}; input data may be incomplete"
                ),
            )
        )
    return issues


def check_bounds(frame: LoadFrame, properties: DataProperties) -> list[ValidationIssue]:
    """Bound anomaly detection on the load attribute."""
    issues: list[ValidationIssue] = []
    lower = properties.load_min - BOUND_SLACK
    upper = properties.load_max + BOUND_SLACK
    for server_id, _, series in frame.items():
        if series.is_empty:
            continue
        values = series.values
        below = int(np.count_nonzero(values < lower))
        above = int(np.count_nonzero(values > upper))
        if below or above:
            issues.append(
                ValidationIssue(
                    rule="bounds.load",
                    severity=ValidationSeverity.ERROR,
                    message=(
                        f"{below + above} load values outside the expected range "
                        f"[{lower:.1f}, {upper:.1f}]"
                    ),
                    server_id=server_id,
                )
            )
    return issues


def check_finite(frame: LoadFrame) -> list[ValidationIssue]:
    """Flag NaN or infinite load values."""
    issues: list[ValidationIssue] = []
    for server_id, _, series in frame.items():
        if series.is_empty:
            continue
        bad = int(np.count_nonzero(~np.isfinite(series.values)))
        if bad:
            issues.append(
                ValidationIssue(
                    rule="values.non_finite",
                    severity=ValidationSeverity.ERROR,
                    message=f"{bad} non-finite load values",
                    server_id=server_id,
                )
            )
    return issues


def check_duplicate_timestamps(frame: LoadFrame) -> list[ValidationIssue]:
    """Flag servers with duplicated or non-increasing timestamps."""
    issues: list[ValidationIssue] = []
    for server_id, _, series in frame.items():
        if len(series) < 2:
            continue
        deltas = np.diff(series.timestamps)
        if np.any(deltas <= 0):
            issues.append(
                ValidationIssue(
                    rule="timestamps.non_increasing",
                    severity=ValidationSeverity.ERROR,
                    message="timestamps are duplicated or out of order",
                    server_id=server_id,
                )
            )
    return issues


def check_coverage(frame: LoadFrame) -> list[ValidationIssue]:
    """Warn about servers with very sparse telemetry over the extract span."""
    issues: list[ValidationIssue] = []
    for server_id, _, series in frame.items():
        if series.is_empty:
            issues.append(
                ValidationIssue(
                    rule="coverage.empty_series",
                    severity=ValidationSeverity.WARNING,
                    message="server has no telemetry in this extract",
                    server_id=server_id,
                )
            )
            continue
        expected_points = series.span_minutes / series.interval_minutes
        if expected_points <= 0:
            continue
        coverage = len(series) / expected_points
        if coverage < MIN_COVERAGE_FRACTION and series.span_minutes > MINUTES_PER_WEEK // 7:
            issues.append(
                ValidationIssue(
                    rule="coverage.sparse",
                    severity=ValidationSeverity.WARNING,
                    message=f"telemetry covers only {coverage:.0%} of the server's lifespan",
                    server_id=server_id,
                )
            )
    return issues


ALL_RULES = (
    ("schema", check_schema),
    ("bounds", check_bounds),
)

STANDALONE_RULES = (
    ("finite", check_finite),
    ("timestamps", check_duplicate_timestamps),
    ("coverage", check_coverage),
)
