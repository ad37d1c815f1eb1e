"""Drift-triggered incremental serving: the live data plane's control loop.

:class:`LiveServingBridge` closes the loop between streaming ingestion and
the serving plane with no human in between.  Every time the live ingestor
seals a tail window into the lake
(:class:`~repro.storage.live.SealReport`), the bridge:

1. reads the freshly committed window back through the ordinary query
   surface and summarises its load distribution
   (:class:`~repro.core.drift.WindowSummary`);
2. hands the summary to a
   :class:`~repro.core.drift.LoadWindowDriftDetector` -- window-over-window
   mean/dispersion/population shifts, available the moment the seal
   commits, no pipeline run required;
3. on a drift verdict (or on the region's first sealed window, which
   bootstraps serving) retrains per-server forecasters on the region's
   committed history and deploys them through
   :meth:`~repro.serving.service.PredictionService.deploy` -- the model
   registry promotes the new version to ACTIVE, so
   ``PredictionService.health()`` follows the data plane automatically.

The bridge is deliberately synchronous and unprivileged: it only uses the
public query/deploy surfaces, so it can run inside the collector process
(the ``python -m repro.fleet_ops live`` simulation does exactly that) or
beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.registry import ModelRecord
from repro.models.base import Forecaster, ForecastError
from repro.models.registry import create_forecaster
from repro.serving.service import PredictionService
from repro.storage.datalake import DataLakeStore
from repro.storage.live import SealReport
from repro.storage.query import ExtractQuery

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.core.drift sits in the middle of
    # the core package's import of the pipeline, which imports serving --
    # a module-level import here would close that cycle.
    from repro.core.drift import WindowDriftReport, WindowSummary

__all__ = ["LiveServingBridge", "LiveServingEvent"]


@dataclass(frozen=True)
class LiveServingEvent:
    """What the bridge did with one sealed window."""

    region: str
    week: int
    window_start: int
    window_end: int
    summary: WindowSummary
    #: The detector's verdict (``None`` for a region's first window).
    verdict: WindowDriftReport | None
    #: ``"bootstrap"`` (first window deployed initial models),
    #: ``"retrain"`` (drift verdict promoted a new version) or ``"none"``.
    action: str
    #: Active model version after this event (``None``: nothing deployed,
    #: e.g. the window had too little history to fit any forecaster).
    active_version: int | None

    @property
    def deployed(self) -> bool:
        return self.action in ("bootstrap", "retrain")


class LiveServingBridge:
    """Feeds sealed live windows to drift detection and model promotion.

    Parameters
    ----------
    store:
        The lake the ingestor seals into; windows and training history
        are read back through its public query surface.
    service:
        The serving plane to deploy into.
    model_name:
        Forecaster family to (re)train (a
        :func:`repro.models.registry.create_forecaster` name).

    Drift is judged by a :class:`~repro.core.drift.LoadWindowDriftDetector`.
    """

    def __init__(
        self,
        store: DataLakeStore,
        service: PredictionService,
        *,
        model_name: str = "persistent_previous_day",
    ) -> None:
        from repro.core.drift import LoadWindowDriftDetector

        self._store = store
        self._service = service
        self._model_name = model_name
        self._detector = LoadWindowDriftDetector()
        self._bootstrapped: set[str] = set()
        self._events: list[LiveServingEvent] = []

    @property
    def events(self) -> list[LiveServingEvent]:
        """Every event the bridge produced, oldest first."""
        return list(self._events)

    def on_sealed(self, report: SealReport) -> LiveServingEvent:
        """React to one committed seal: summarise, detect, maybe promote."""
        from repro.core.drift import WindowSummary

        window = self._store.query(
            ExtractQuery(
                regions=(report.region,),
                weeks=(report.week,),
                start_minute=report.window_start,
                end_minute=report.sealed_through,
            )
        ).frame
        summary = WindowSummary.from_frame(
            report.region, window, report.window_start, report.sealed_through
        )
        verdict = self._detector.observe(summary)
        action = "none"
        if report.region not in self._bootstrapped:
            action = "bootstrap" if self._retrain(report) else "none"
        elif verdict is not None and verdict.drifted:
            action = "retrain" if self._retrain(report) else "none"
        active = self._service.registry.active(report.region)
        event = LiveServingEvent(
            region=report.region,
            week=report.week,
            window_start=report.window_start,
            window_end=report.sealed_through,
            summary=summary,
            verdict=verdict,
            action=action,
            active_version=active.version if active is not None else None,
        )
        self._events.append(event)
        return event

    def _retrain(self, report: SealReport) -> ModelRecord | None:
        """Fit fresh forecasters on the region's committed history and
        deploy them; ``None`` when no server has enough history yet."""
        history = self._store.query(
            ExtractQuery(regions=(report.region,), end_minute=report.sealed_through)
        ).frame
        forecasters: dict[str, Forecaster] = {}
        for server_id, _metadata, series in history.items():
            try:
                forecasters[server_id] = create_forecaster(self._model_name).fit(series)
            except ForecastError:
                continue  # not enough history for this server yet
        if not forecasters:
            return None
        record = self._service.deploy(
            region=report.region,
            model_name=self._model_name,
            trained_week=report.week,
            forecasters=forecasters,
            notes=f"live retrain through minute {report.sealed_through}",
        )
        self._bootstrapped.add(report.region)
        return record
