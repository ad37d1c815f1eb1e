"""Runner service (Section 2.3).

"The backup scheduler runs within Master Data Service (MDS) runner per day
and cluster.  The Runner Service deploys executables which probe their
respective services resulting in measurement of availability and quality of
service.  The runner service is deployed in each Azure region."

This module reproduces the execution harness: per-region runners that
execute the backup scheduling step once per day per cluster, record probe
results and expose a simple availability summary.  Predictions are
obtained from the unified serving layer
(:class:`~repro.serving.service.PredictionService`) -- one batched
request per execution against the region's active model version -- rather
than from raw forecaster objects, so the runner automatically follows
version fallback and benefits from the prediction cache when it re-asks
for windows it already asked for.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.metrics.predictable import PredictabilityVerdict
from repro.scheduling.backup import BackupDecision, BackupScheduler
from repro.serving.api import BatchPredictionResponse, ServingError
from repro.serving.service import PredictionService
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES, points_per_day
from repro.timeseries.frame import ServerMetadata
from repro.timeseries.series import LoadSeries


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one availability probe of a dependent service."""

    probe_name: str
    available: bool
    detail: str = ""


@dataclass
class RunnerExecution:
    """One daily execution of the runner on one cluster."""

    region: str
    cluster: str
    day: int
    decisions: dict[str, BackupDecision] = field(default_factory=dict)
    probes: list[ProbeResult] = field(default_factory=list)
    #: Serving metadata of the prediction batch this execution consumed
    #: (``None`` when probes failed or no model version was active).
    serving: BatchPredictionResponse | None = None

    @property
    def succeeded(self) -> bool:
        return all(probe.available for probe in self.probes)


class RunnerService:
    """Per-region runner that executes the backup scheduler per day/cluster.

    Parameters
    ----------
    region:
        Region this runner is deployed in; only this region's servers are
        scheduled and only this region's model versions are queried.
    scheduler:
        Backup scheduler executed per day/cluster.
    probes:
        Availability probes run before every execution.
    serving:
        The prediction-serving layer.  Without one the runner can still
        execute (probes run, scheduling keeps default windows), mirroring
        a region whose model deployment has not happened yet.
    """

    def __init__(
        self,
        region: str,
        scheduler: BackupScheduler | None = None,
        probes: Mapping[str, Callable[[], bool]] | None = None,
        serving: PredictionService | None = None,
    ) -> None:
        self._region = region
        self._scheduler = scheduler if scheduler is not None else BackupScheduler()
        self._probes = dict(probes) if probes is not None else {}
        self._serving = serving
        self._executions: list[RunnerExecution] = []

    @property
    def region(self) -> str:
        return self._region

    @property
    def scheduler(self) -> BackupScheduler:
        return self._scheduler

    @property
    def serving(self) -> PredictionService | None:
        return self._serving

    def availability(self) -> float:
        """Fraction of executions whose probes all succeeded (1.0 when none ran)."""
        if not self._executions:
            return 1.0
        return sum(1 for e in self._executions if e.succeeded) / len(self._executions)

    # ------------------------------------------------------------------ #

    def run_day(
        self,
        cluster: str,
        day: int,
        metadata_by_server: Mapping[str, ServerMetadata],
        verdicts: Mapping[str, PredictabilityVerdict],
        horizon_points: int = points_per_day(DEFAULT_INTERVAL_MINUTES),
    ) -> RunnerExecution:
        """Execute the scheduling step for one cluster on one day.

        ``horizon_points`` is the prediction horizon requested from the
        serving layer (default: one day on the default grid).  Servers
        the serving version cannot score keep their default windows (they
        surface in ``execution.serving.skipped`` / ``failed``), and a
        region without any active version schedules everything into the
        default windows rather than failing the execution.
        """
        execution = RunnerExecution(region=self._region, cluster=cluster, day=day)
        for name, probe in self._probes.items():
            try:
                available = bool(probe())
                detail = ""
            except Exception as exc:  # probes must never crash the runner
                available = False
                detail = str(exc)
            execution.probes.append(ProbeResult(probe_name=name, available=available, detail=detail))

        if execution.succeeded:
            due = {
                server_id: metadata
                for server_id, metadata in metadata_by_server.items()
                if metadata.region == self._region
            }
            predictions = self._fetch_predictions(due, horizon_points, execution)
            execution.decisions = self._scheduler.schedule_fleet(due, predictions, verdicts)
        self._executions.append(execution)
        return execution

    def _fetch_predictions(
        self,
        due: Mapping[str, ServerMetadata],
        horizon_points: int,
        execution: RunnerExecution,
    ) -> dict[str, LoadSeries]:
        if self._serving is None or not due:
            return {}
        try:
            batch = self._serving.predict_batch(
                region=self._region,
                n_points=horizon_points,
                server_ids=sorted(due),
            )
        except ServingError:
            # No deployed/active version yet: scheduling degrades to the
            # default windows, exactly like an unpredictable fleet.
            return {}
        execution.serving = batch
        return batch.predictions()
