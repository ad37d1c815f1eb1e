"""Model deployment and version tracking (Section 2.2).

Every pipeline run deploys a model version per region.  The registry tracks
all versions, knows which one is active, records the evaluated accuracy of
each version and supports falling back to the previously known-good version
when a new deployment regresses -- the behaviour summarised in the abstract
as "fallback to previously known good models".

Records live in memory for the life of the registry.  The paper keeps them
in Cosmos DB; here nothing reads a record back after the run, and a rerun
redeploys from the artifact cache's ``model`` entry instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class ModelStatus(enum.Enum):
    """Lifecycle states of a deployed model version."""

    ACTIVE = "active"
    RETIRED = "retired"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DeploymentError(RuntimeError):
    """Raised when a deployment or fallback cannot be performed."""


@dataclass(frozen=True)
class ModelRecord:
    """One deployed model version for one region."""

    region: str
    version: int
    model_name: str
    trained_week: int
    status: ModelStatus = ModelStatus.ACTIVE
    accuracy_pct: float = float("nan")
    notes: str = ""


class ModelRegistry:
    """Tracks deployed model versions per region."""

    def __init__(self) -> None:
        self._records: dict[str, list[ModelRecord]] = {}

    # ------------------------------------------------------------------ #

    def deploy(
        self,
        region: str,
        model_name: str,
        trained_week: int,
        notes: str = "",
    ) -> ModelRecord:
        """Register a new model version for a region and make it active.

        The previously active version (if any) is retired but kept as the
        fallback candidate.
        """
        versions = self._records.setdefault(region, [])
        next_version = len(versions) + 1
        for index, record in enumerate(versions):
            if record.status is ModelStatus.ACTIVE:
                versions[index] = replace(record, status=ModelStatus.RETIRED)
        record = ModelRecord(
            region=region,
            version=next_version,
            model_name=model_name,
            trained_week=trained_week,
            status=ModelStatus.ACTIVE,
            notes=notes,
        )
        versions.append(record)
        return record

    def record_accuracy(self, region: str, version: int, accuracy_pct: float) -> ModelRecord:
        """Attach an evaluated accuracy to a deployed version."""
        versions = self._records.get(region, [])
        for index, record in enumerate(versions):
            if record.version == version:
                updated = replace(record, accuracy_pct=accuracy_pct)
                versions[index] = updated
                return updated
        raise DeploymentError(f"no version {version} deployed in region {region!r}")

    def fallback(self, region: str) -> ModelRecord:
        """Fall back to the most recent known-good (non-failed) prior version.

        The currently active version is marked failed; the chosen prior
        version becomes active again.
        """
        versions = self._records.get(region, [])
        if not versions:
            raise DeploymentError(f"no deployments recorded for region {region!r}")
        active_index = next(
            (i for i, r in enumerate(versions) if r.status is ModelStatus.ACTIVE), None
        )
        candidates = [
            (i, r)
            for i, r in enumerate(versions)
            if r.status is ModelStatus.RETIRED and (active_index is None or i < active_index)
        ]
        if not candidates:
            raise DeploymentError(f"no known-good prior version to fall back to in {region!r}")
        if active_index is not None:
            versions[active_index] = replace(
                versions[active_index], status=ModelStatus.FAILED, notes="regression fallback"
            )
        index, record = candidates[-1]
        restored = replace(record, status=ModelStatus.ACTIVE, notes="restored by fallback")
        versions[index] = restored
        return restored

    # ------------------------------------------------------------------ #

    def active(self, region: str) -> ModelRecord | None:
        """The currently active version for a region, if any."""
        for record in reversed(self._records.get(region, [])):
            if record.status is ModelStatus.ACTIVE:
                return record
        return None

    def versions(self, region: str) -> list[ModelRecord]:
        """All versions deployed for a region, oldest first."""
        return list(self._records.get(region, []))

    def regions(self) -> list[str]:
        """Regions with at least one deployment."""
        return sorted(self._records)
