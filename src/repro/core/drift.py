"""Live-window drift detection.

:class:`LoadWindowDriftDetector` compares the raw load *distribution* of
consecutive sealed tail windows (mean and dispersion shift, servers
appearing/disappearing) without waiting for a full pipeline run -- it is
what the live serving bridge consults right after every seal to decide
whether the models serving a region still describe its traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.timeseries.frame import LoadFrame

#: How much window-over-window distribution movement counts as drift:
#: the relative shift of the mean load, in percent of the previous mean;
MAX_MEAN_SHIFT_PCT = 25.0
#: of the load dispersion (standard deviation);
MAX_STD_SHIFT_PCT = 50.0
#: and the share of the server population appearing or disappearing.
MAX_POPULATION_SHIFT_PCT = 30.0


@dataclass(frozen=True)
class WindowSummary:
    """Distribution summary of one sealed live window's load samples."""

    region: str
    window_start: int
    window_end: int
    n_servers: int
    n_rows: int
    mean_load: float
    std_load: float

    @classmethod
    def from_frame(
        cls, region: str, frame: LoadFrame, window_start: int, window_end: int
    ) -> "WindowSummary":
        """Summarise the (already windowed) ``frame``'s load distribution."""
        parts = [
            series.values[np.isfinite(series.values)]
            for _server_id, _metadata, series in frame.items()
        ]
        values = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )
        return cls(
            region=region,
            window_start=window_start,
            window_end=window_end,
            n_servers=len(frame),
            n_rows=int(values.size),
            mean_load=float(values.mean()) if values.size else math.nan,
            std_load=float(values.std()) if values.size else math.nan,
        )


@dataclass(frozen=True)
class WindowDriftReport:
    """Outcome of comparing one sealed window against its predecessor."""

    region: str
    window_start: int
    window_end: int
    mean_shift_pct: float
    std_shift_pct: float
    population_shift_pct: float
    drifted: bool
    details: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "region": self.region,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "mean_shift_pct": self.mean_shift_pct,
            "std_shift_pct": self.std_shift_pct,
            "population_shift_pct": self.population_shift_pct,
            "drifted": self.drifted,
            "details": list(self.details),
        }


def _relative_shift_pct(before: float, after: float) -> float:
    """``|after - before|`` as a percentage of ``before`` (NaN-safe)."""
    if math.isnan(before) or math.isnan(after):
        return 0.0
    if before == 0.0:
        return 0.0 if after == 0.0 else math.inf
    return abs(after - before) / abs(before) * 100.0


class LoadWindowDriftDetector:
    """Compares consecutive sealed live windows per region and flags drift.

    Section 2.1 motivates the infrastructure's modularity with the
    observation that "usage patterns may change over time.  This
    observation justifies the need for a robust infrastructure that
    automatically detects these changes, notifies about them, and allows
    to easily replace the model."  This is that detector: it needs only
    the sealed window's load distribution (no labels, no pipeline run),
    so a verdict is available the moment a seal commits, and a drifted
    verdict makes the live bridge retrain.  Empty
    windows are ignored and never overwrite the last populated baseline.
    """

    def __init__(self) -> None:
        self._previous: dict[str, WindowSummary] = {}

    def observe(self, summary: WindowSummary) -> WindowDriftReport | None:
        """Record a sealed window; returns a report once a baseline exists."""
        if summary.n_rows == 0:
            return None
        previous = self._previous.get(summary.region)
        self._previous[summary.region] = summary
        if previous is None:
            return None
        return self._compare(previous, summary)

    def _compare(
        self, previous: WindowSummary, current: WindowSummary
    ) -> WindowDriftReport:
        details: list[str] = []

        mean_shift = _relative_shift_pct(previous.mean_load, current.mean_load)
        if mean_shift > MAX_MEAN_SHIFT_PCT:
            details.append(
                f"mean load shifted {mean_shift:.1f}% "
                f"({previous.mean_load:.2f} -> {current.mean_load:.2f})"
            )

        std_shift = _relative_shift_pct(previous.std_load, current.std_load)
        if std_shift > MAX_STD_SHIFT_PCT:
            details.append(
                f"load dispersion shifted {std_shift:.1f}% "
                f"({previous.std_load:.2f} -> {current.std_load:.2f})"
            )

        population = 0.0
        if previous.n_servers:
            population = (
                abs(current.n_servers - previous.n_servers) / previous.n_servers * 100.0
            )
        if population > MAX_POPULATION_SHIFT_PCT:
            details.append(
                f"server population shifted {population:.1f}% "
                f"({previous.n_servers} -> {current.n_servers})"
            )

        return WindowDriftReport(
            region=current.region,
            window_start=current.window_start,
            window_end=current.window_end,
            mean_shift_pct=mean_shift,
            std_shift_pct=std_shift,
            population_shift_pct=population,
            drifted=bool(details),
            details=tuple(details),
        )
