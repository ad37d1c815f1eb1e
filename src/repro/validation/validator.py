"""Data Validation Module: runs all rules and produces a report."""

from __future__ import annotations

from dataclasses import dataclass

from repro.timeseries.frame import LoadFrame
from repro.validation.rules import (
    ValidationIssue,
    ValidationSeverity,
    check_bounds,
    check_coverage,
    check_duplicate_timestamps,
    check_finite,
    check_schema,
)
from repro.validation.schema import DataProperties, infer_properties


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one extract."""

    issues: tuple[ValidationIssue, ...]
    n_servers: int
    n_points: int

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity is ValidationSeverity.ERROR)

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity is ValidationSeverity.WARNING)

    @property
    def passed(self) -> bool:
        """An extract passes validation when it has no error-severity issues."""
        return not self.errors

    def as_dict(self) -> dict[str, object]:
        return {
            "passed": self.passed,
            "n_servers": self.n_servers,
            "n_points": self.n_points,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "issues": [issue.as_dict() for issue in self.issues],
        }


class DataValidationModule:
    """Validates extracts against inferred properties.

    The module bootstraps its :class:`DataProperties` from the first
    extract it sees (mirroring Section 2.4's "automatically deduce schema
    and other data properties from the input data").
    """

    def __init__(self) -> None:
        self._properties: DataProperties | None = None

    @property
    def properties(self) -> DataProperties | None:
        return self._properties

    def bootstrap(self, frame: LoadFrame) -> DataProperties:
        """Infer and retain data properties from a reference extract."""
        self._properties = infer_properties(frame)
        return self._properties

    def validate(self, frame: LoadFrame) -> ValidationReport:
        """Run every rule on ``frame`` and return the combined report."""
        if self._properties is None:
            self.bootstrap(frame)
        assert self._properties is not None

        issues: list[ValidationIssue] = []
        issues.extend(check_schema(frame, self._properties))
        issues.extend(check_bounds(frame, self._properties))
        issues.extend(check_finite(frame))
        issues.extend(check_duplicate_timestamps(frame))
        issues.extend(check_coverage(frame))

        return ValidationReport(
            issues=tuple(issues),
            n_servers=len(frame),
            n_points=frame.total_points(),
        )
