"""Helper constructors shared by the test suite."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.timeseries.calendar import MINUTES_PER_DAY, points_per_day
from repro.timeseries.series import LoadSeries

POINTS_PER_DAY = points_per_day(5)

def bare_sgx_header(version: int) -> bytes:
    """A 36-byte ``.sgx`` file (no servers, no dictionary) stamped with
    ``version`` and a correct header CRC.  At the current version it is a
    genuine empty extract; at any other it exercises the reader's version
    gate -- hand-packed, so no old-layout writer has to be kept alive."""
    header = struct.pack("<4sHHIIIQI", b"SGXF", version, 0, 5, 0, 0, 36, zlib.crc32(b""))
    return header + struct.pack("<I", zlib.crc32(header))


class CrashInjector:
    """Kill a manifest transaction at the N-th hit of one fault point.

    Install via :func:`repro.storage.manifest.fault_handler`::

        injector = CrashInjector("manifest.pointer")
        with fault_handler(injector):
            with pytest.raises(InjectedCrash):
                lake.write_extract(key, frame)

    ``occurrence`` picks a later hit of the same point (1 = first).
    With ``crash_at=None`` the injector only records the points it saw
    (``.seen``), which is how tests enumerate a protocol's fault points
    without hard-coding the order.
    """

    def __init__(self, crash_at: str | None, occurrence: int = 1) -> None:
        from repro.storage.manifest import InjectedCrash

        self._crash_at = crash_at
        self._occurrence = occurrence
        self._exc = InjectedCrash
        self.seen: list[str] = []
        self.fired = False

    def __call__(self, point: str) -> None:
        self.seen.append(point)
        if self._crash_at is not None and point == self._crash_at:
            if self.seen.count(point) >= self._occurrence:
                self.fired = True
                raise self._exc(point)


def make_series(values, start=0, interval=5) -> LoadSeries:
    """Construct a series from raw values on a regular grid."""
    return LoadSeries.from_values(
        np.asarray(values, dtype=float), start=start, interval_minutes=interval
    )


def flat_day(level: float, day: int = 0, interval: int = 5) -> LoadSeries:
    """One day of constant load."""
    n = MINUTES_PER_DAY // interval
    return LoadSeries.from_values(
        np.full(n, level), start=day * MINUTES_PER_DAY, interval_minutes=interval
    )


def diurnal_series(
    n_days: int,
    base: float = 20.0,
    amplitude: float = 30.0,
    noise: float = 0.0,
    interval: int = 5,
    seed: int = 0,
    start_day: int = 0,
) -> LoadSeries:
    """A repeating diurnal (sinusoidal) load trace over ``n_days`` days."""
    rng = np.random.default_rng(seed)
    points_day = MINUTES_PER_DAY // interval
    n = n_days * points_day
    phase = 2 * np.pi * np.arange(n) / points_day
    values = base + amplitude * 0.5 * (1 + np.sin(phase - np.pi / 2))
    if noise:
        values = values + rng.normal(0, noise, n)
    values = np.clip(values, 0, 100)
    return LoadSeries.from_values(
        values, start=start_day * MINUTES_PER_DAY, interval_minutes=interval
    )


def weekly_profile_series(
    n_days: int,
    weekday_level: float = 60.0,
    weekend_level: float = 10.0,
    noise: float = 0.5,
    seed: int = 1,
) -> LoadSeries:
    """A trace whose level depends on the day of week (weekly pattern)."""
    rng = np.random.default_rng(seed)
    days = []
    for day in range(n_days):
        level = weekend_level if day % 7 in (5, 6) else weekday_level
        days.append(np.full(POINTS_PER_DAY, level))
    values = np.concatenate(days) + rng.normal(0, noise, n_days * POINTS_PER_DAY)
    return LoadSeries.from_values(np.clip(values, 0, 100))
