"""Scoring endpoints (Section 2.2).

The production pipeline deploys each trained model behind a REST endpoint
and performs inference against it.  :class:`ScoringEndpoint` reproduces
that boundary in-process: it owns the fitted per-server forecasters of one
model version and serves per-server predictions, keeping simple request
statistics the dashboard can display.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.models.base import Forecaster
from repro.timeseries.series import LoadSeries


class EndpointError(RuntimeError):
    """Raised when a prediction is requested for an unknown server."""


@dataclass(frozen=True)
class BatchScoringResult:
    """Outcome of one :meth:`ScoringEndpoint.predict_many` call.

    Per-server failures never abort the batch: ``predictions`` holds the
    successes, ``skipped`` the servers this version has no model for, and
    ``failed`` maps servers whose forecaster raised to the error message.
    """

    predictions: dict[str, LoadSeries] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    failed: dict[str, str] = field(default_factory=dict)


class ScoringEndpoint:
    """Serves predictions from the fitted forecasters of one model version."""

    def __init__(
        self,
        region: str,
        model_name: str,
        version: int,
        forecasters: Mapping[str, Forecaster],
    ) -> None:
        self._region = region
        self._model_name = model_name
        self._version = version
        self._forecasters = dict(forecasters)
        self._requests = 0
        self._failures = 0
        # The serving layer fans predict_many chunks across a thread pool;
        # counter increments are read-modify-writes and need the lock.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #

    @property
    def region(self) -> str:
        return self._region

    @property
    def model_name(self) -> str:
        return self._model_name

    @property
    def version(self) -> int:
        return self._version

    @property
    def request_count(self) -> int:
        """Number of prediction requests served (successful or not)."""
        return self._requests

    @property
    def failure_count(self) -> int:
        """Number of prediction requests that failed."""
        return self._failures

    def servers(self) -> list[str]:
        """Server ids this endpoint can score."""
        return sorted(self._forecasters)

    # ------------------------------------------------------------------ #

    def predict(self, server_id: str, n_points: int) -> LoadSeries:
        """Predict ``n_points`` of load for ``server_id``.

        Raises :class:`EndpointError` when the server has no fitted model
        (short-lived servers and servers that failed training are not
        deployed).
        """
        with self._stats_lock:
            self._requests += 1
        forecaster = self._forecasters.get(server_id)
        if forecaster is None:
            with self._stats_lock:
                self._failures += 1
            raise EndpointError(
                f"endpoint {self._region} v{self._version} has no model for {server_id!r}"
            )
        try:
            return forecaster.predict(n_points)
        except Exception:
            with self._stats_lock:
                self._failures += 1
            raise

    def predict_many(self, server_ids: Iterable[str], n_points: int) -> BatchScoringResult:
        """Predict for several servers with per-server failure isolation.

        Servers without a deployed model land in ``skipped`` (they were
        never scorable, so they count neither as requests nor failures);
        a forecaster exception mid-batch is recorded in ``failed`` and the
        remaining servers are still scored.  Accepts any iterable of
        server ids.
        """
        predictions: dict[str, LoadSeries] = {}
        skipped: list[str] = []
        failed: dict[str, str] = {}
        for server_id in server_ids:
            forecaster = self._forecasters.get(server_id)
            if forecaster is None:
                skipped.append(server_id)
                continue
            with self._stats_lock:
                self._requests += 1
            try:
                predictions[server_id] = forecaster.predict(n_points)
            except Exception as exc:
                with self._stats_lock:
                    self._failures += 1
                failed[server_id] = f"{type(exc).__name__}: {exc}"
        return BatchScoringResult(
            predictions=predictions, skipped=tuple(skipped), failed=failed
        )

    def health(self) -> dict[str, object]:
        """Health summary shown on the dashboard."""
        return {
            "region": self._region,
            "model_name": self._model_name,
            "version": self._version,
            "n_servers": len(self._forecasters),
            "requests": self._requests,
            "failures": self._failures,
        }
