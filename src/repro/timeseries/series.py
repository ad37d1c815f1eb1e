"""Single-server load series.

A :class:`LoadSeries` holds one server's telemetry on a *regular* sampling
grid: integer epoch-minute timestamps spaced ``interval_minutes`` apart and
one float load value (average user CPU percentage) per timestamp.  All of
the Seagull metrics (bucket ratio, lowest-load window) and all forecasting
models operate on these series.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.timeseries import calendar
from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES, MINUTES_PER_DAY


class IrregularSeriesError(ValueError):
    """Raised when timestamps are not on a regular, strictly increasing grid."""


@dataclass(frozen=True)
class SeriesStats:
    """Summary statistics of a load series."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }


class LoadSeries:
    """A regularly sampled load trace for a single server.

    Parameters
    ----------
    timestamps:
        Strictly increasing epoch-minute timestamps on a regular grid.
    values:
        Load values (average user CPU percentage per interval), same length
        as ``timestamps``.
    interval_minutes:
        Sampling interval.  Defaults to the paper's 5-minute granularity.
    validate:
        When true (the default) the constructor checks grid regularity.
    """

    __slots__ = ("_timestamps", "_values", "_interval")

    def __init__(
        self,
        timestamps: Iterable[int],
        values: Iterable[float],
        interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
        validate: bool = True,
    ) -> None:
        ts = np.asarray(list(timestamps) if not isinstance(timestamps, np.ndarray) else timestamps, dtype=np.int64)
        vs = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
        if ts.ndim != 1 or vs.ndim != 1:
            raise IrregularSeriesError("timestamps and values must be one-dimensional")
        if ts.shape[0] != vs.shape[0]:
            raise IrregularSeriesError(
                f"timestamps ({ts.shape[0]}) and values ({vs.shape[0]}) differ in length"
            )
        if interval_minutes <= 0:
            raise ValueError("interval_minutes must be positive")
        if validate and ts.shape[0] > 1:
            deltas = np.diff(ts)
            if np.any(deltas <= 0):
                raise IrregularSeriesError("timestamps must be strictly increasing")
            if np.any(deltas != interval_minutes):
                raise IrregularSeriesError(
                    "timestamps must be spaced exactly interval_minutes apart; "
                    "use repro.timeseries.resample.regularize for raw telemetry"
                )
        self._timestamps = ts
        self._values = vs
        self._interval = int(interval_minutes)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def timestamps(self) -> np.ndarray:
        """Epoch-minute timestamps (read-only view)."""
        view = self._timestamps.view()
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Load values (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def interval_minutes(self) -> int:
        """Sampling interval in minutes."""
        return self._interval

    def __len__(self) -> int:
        return int(self._timestamps.shape[0])

    def __iter__(self) -> Iterator[tuple[int, float]]:
        for ts, value in zip(self._timestamps.tolist(), self._values.tolist(), strict=True):
            yield int(ts), float(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoadSeries):
            return NotImplemented
        return (
            self._interval == other._interval
            and np.array_equal(self._timestamps, other._timestamps)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        if len(self) == 0:
            return f"LoadSeries(empty, interval={self._interval}m)"
        return (
            f"LoadSeries(n={len(self)}, interval={self._interval}m, "
            f"start={int(self._timestamps[0])}, end={int(self._timestamps[-1])})"
        )

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def start(self) -> int:
        """First timestamp.  Raises on an empty series."""
        if self.is_empty:
            raise ValueError("empty series has no start")
        return int(self._timestamps[0])

    @property
    def end(self) -> int:
        """Last timestamp (inclusive).  Raises on an empty series."""
        if self.is_empty:
            raise ValueError("empty series has no end")
        return int(self._timestamps[-1])

    @property
    def span_minutes(self) -> int:
        """Number of minutes covered, counting each sample as one interval."""
        if self.is_empty:
            return 0
        return self.end - self.start + self._interval

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, interval_minutes: int = DEFAULT_INTERVAL_MINUTES) -> "LoadSeries":
        """Return an empty series with the given interval."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), interval_minutes)

    @classmethod
    def from_values(
        cls,
        values: Iterable[float],
        start: int = 0,
        interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
    ) -> "LoadSeries":
        """Build a series from values only, generating the timestamp grid."""
        vs = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.float64)
        ts = start + np.arange(vs.shape[0], dtype=np.int64) * interval_minutes
        return cls(ts, vs, interval_minutes, validate=False)

    def with_values(self, values: np.ndarray) -> "LoadSeries":
        """Return a copy of this series with the same grid but new values."""
        vs = np.asarray(values, dtype=np.float64)
        if vs.shape != self._values.shape:
            raise ValueError("replacement values must match the series length")
        return LoadSeries(self._timestamps.copy(), vs.copy(), self._interval, validate=False)

    def copy(self) -> "LoadSeries":
        """Return an independent copy."""
        return LoadSeries(
            self._timestamps.copy(), self._values.copy(), self._interval, validate=False
        )

    # ------------------------------------------------------------------ #
    # Slicing and alignment
    # ------------------------------------------------------------------ #

    def slice(self, start: int, end: int) -> "LoadSeries":
        """Return the sub-series with ``start <= timestamp < end``."""
        if end < start:
            raise ValueError("end must not be before start")
        lo = int(np.searchsorted(self._timestamps, start, side="left"))
        hi = int(np.searchsorted(self._timestamps, end, side="left"))
        return LoadSeries(
            self._timestamps[lo:hi].copy(),
            self._values[lo:hi].copy(),
            self._interval,
            validate=False,
        )

    def day(self, day: int) -> "LoadSeries":
        """Return the sub-series covering zero-based day ``day``."""
        start, end = calendar.day_bounds(day)
        return self.slice(start, end)

    def week(self, week: int) -> "LoadSeries":
        """Return the sub-series covering zero-based week ``week``."""
        start, end = calendar.week_bounds(week)
        return self.slice(start, end)

    def last_days(self, n_days: int) -> "LoadSeries":
        """Return the trailing ``n_days`` days ending at the series end."""
        if self.is_empty:
            return self.copy()
        end = self.end + self._interval
        return self.slice(end - n_days * MINUTES_PER_DAY, end)

    def shift(self, minutes: int) -> "LoadSeries":
        """Return a copy with all timestamps shifted by ``minutes``.

        Shifting forward by one day turns yesterday's observed load into
        the persistent forecast for today (Section 5.1).
        """
        return LoadSeries(
            self._timestamps + int(minutes),
            self._values.copy(),
            self._interval,
            validate=False,
        )

    def align_to(self, other: "LoadSeries") -> tuple[np.ndarray, np.ndarray]:
        """Return value arrays of ``self`` and ``other`` on their common grid.

        Only timestamps present in both series are kept.  The metric modules
        use this to compare predicted against true load point by point.
        """
        common, self_idx, other_idx = np.intersect1d(
            self._timestamps, other._timestamps, assume_unique=True, return_indices=True
        )
        del common
        return self._values[self_idx].copy(), other._values[other_idx].copy()

    def days(self) -> list[int]:
        """Return the sorted list of zero-based day indices covered."""
        if self.is_empty:
            return []
        return sorted(set((self._timestamps // MINUTES_PER_DAY).tolist()))

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def mean(self) -> float:
        """Average load; ``nan`` for an empty series."""
        if self.is_empty:
            return float("nan")
        return float(np.mean(self._values))

    def std(self) -> float:
        """Load standard deviation; ``nan`` for an empty series."""
        if self.is_empty:
            return float("nan")
        return float(np.std(self._values))

    def minimum(self) -> float:
        if self.is_empty:
            return float("nan")
        return float(np.min(self._values))

    def maximum(self) -> float:
        if self.is_empty:
            return float("nan")
        return float(np.max(self._values))

    def stats(self) -> SeriesStats:
        """Return summary statistics for the series."""
        return SeriesStats(
            count=len(self),
            mean=self.mean(),
            std=self.std(),
            minimum=self.minimum(),
            maximum=self.maximum(),
        )

    def window_average(self, start: int, duration_minutes: int) -> float:
        """Average load over ``[start, start + duration_minutes)``."""
        return self.slice(start, start + duration_minutes).mean()

    def clip(self, lower: float = 0.0, upper: float = 100.0) -> "LoadSeries":
        """Return a copy with values clipped to ``[lower, upper]``."""
        return self.with_values(np.clip(self._values, lower, upper))

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #

    def concat(self, other: "LoadSeries") -> "LoadSeries":
        """Concatenate ``other`` after this series.

        The two series must share the sampling interval and ``other`` must
        begin after this series ends.
        """
        if other.is_empty:
            return self.copy()
        if self.is_empty:
            return other.copy()
        if self._interval != other._interval:
            raise IrregularSeriesError("cannot concat series with different intervals")
        if other.start <= self.end:
            raise IrregularSeriesError("series to concat must start after this one ends")
        return LoadSeries(
            np.concatenate([self._timestamps, other._timestamps]),
            np.concatenate([self._values, other._values]),
            self._interval,
            validate=False,
        )

    def to_rows(self, server_id: str) -> list[tuple[str, int, float]]:
        """Return ``(server_id, timestamp, value)`` rows for CSV export."""
        return [
            (server_id, int(ts), float(value))
            for ts, value in zip(self._timestamps.tolist(), self._values.tolist(), strict=True)
        ]
