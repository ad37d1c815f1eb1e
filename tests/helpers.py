"""Helper constructors shared by the test suite."""

from __future__ import annotations

import hashlib
import json
import struct
import zlib

import numpy as np

from repro.storage.columnar import frame_to_sgx_bytes
from repro.storage.csv_io import frame_to_csv_text
from repro.storage.migrate import adopt_legacy_files
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_DAY, points_per_day
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

POINTS_PER_DAY = points_per_day(5)


def small_frame(n: int = 2, level: float = 1.0) -> LoadFrame:
    """``n`` servers ``s<i>`` of region ``r0``, two samples each."""
    frame = LoadFrame(5)
    for index in range(n):
        metadata = ServerMetadata(server_id=f"s{index}", region="r0")
        frame.add_server(metadata, make_series([level, level + 1.0]))
    return frame


def read_frame(lake, key, **overrides) -> LoadFrame:
    """``key``'s extract as one frame, read through ``lake.query``."""
    return lake.query(ExtractQuery.for_key(key, **overrides)).frame


def plant_csv(lake, key, frame, alone: bool = False) -> None:
    """Commit a generation holding a CSV entry for ``key`` (which has
    none yet), beside whatever segment the key has -- or, ``alone``, in
    its place, as an older store's CSV overwrite left it -- as an older
    store wrote one: a content-addressed ``.csv`` file, and a generation
    file in which every entry carries its ``"fmt"``.  No store opens it
    until ``convert`` has adopted it."""
    text = frame_to_csv_text(frame).encode("utf-8")
    sha = hashlib.sha256(text).hexdigest()
    relpath = f"{key.region}/extract_{key.region}_week{key.week:04d}-{sha[:12]}.csv"
    (lake.root / key.region).mkdir(parents=True, exist_ok=True)
    (lake.root / relpath).write_bytes(text)  # what an older store staged
    manifest_dir = lake.root / "_manifest"
    pointer = manifest_dir / "MANIFEST.json"
    if pointer.exists():
        gen = json.loads((manifest_dir / json.loads(pointer.read_text())["file"]).read_text())
    else:
        manifest_dir.mkdir(exist_ok=True)
        gen = {"generation": 0, "segments": [], "sealed_through": []}
    entry = {"region": key.region, "week": key.week, "relpath": relpath, "size": len(text)}
    kept = [
        e for e in gen["segments"]
        if not alone or (e["region"], e["week"]) != (key.region, key.week)
    ]
    gen["segments"] = [
        {**e, "fmt": e["relpath"].rsplit(".", 1)[1]} for e in [*kept, {**entry, "sha256": sha}]
    ]
    gen["generation"] += 1
    gen["txid"] = f"planted-{gen['generation']}"
    name = f"gen-{gen['generation']:08d}.json"
    (manifest_dir / name).write_text(json.dumps(gen))
    committed = {"generation": gen["generation"], "txid": gen["txid"], "file": name}
    pointer.write_text(json.dumps(committed))


def plant_legacy(lake, frames, fmt: str = "csv", adopt: bool = True) -> None:
    """Drop ``frames`` (key -> frame) as pre-manifest ``.<fmt>`` files into
    the not yet manifested ``lake``, then (``adopt``) run the adopt step
    ``convert`` starts with."""
    for key, frame in frames.items():
        payload = frame_to_csv_text(frame).encode() if fmt == "csv" else frame_to_sgx_bytes(frame)
        path = lake.root / key.region / key.filename(fmt)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)  # fabricates a pre-manifest file for adoption
    if adopt:
        adopt_legacy_files(lake.manifest)


def write_via(origin: str, lake, key, frame) -> None:
    """Store ``frame`` under ``key`` natively (``"sgx"``) or by adopting a
    planted CSV entry (``"csv"``): whatever a test asserts of a written
    lake has to hold for an adopted one too."""
    if origin == "sgx":
        lake.write_extract(key, frame)
    else:
        plant_csv(lake, key, frame)
        adopt_legacy_files(lake.manifest)


def naive_rows(frame: LoadFrame, q) -> LoadFrame:
    """Re-answer the row query ``q`` from the frame that was written.

    The independent reference the lake's pushdowns are held against, one
    sample at a time in plain Python: filter servers and engines, slice
    to the time range, blank unprojected values, bucket-mean onto
    ``q.interval_minutes``, drop servers a ranged read leaves empty, cap
    at the row limit in stored order.
    """
    interval = q.interval_minutes if q.interval_minutes is not None else frame.interval_minutes
    lo, hi = q.time_range()
    out = LoadFrame(interval)
    remaining = q.limit
    for server_id, metadata, series in frame.items():
        if q.servers is not None and server_id not in q.servers:
            continue
        if q.engines is not None and metadata.engine not in q.engines:
            continue
        rows = [
            (int(t), float(v) if q.wants_values else float("nan"))
            for t, v in zip(series.timestamps, series.values, strict=True)
            if lo <= t < hi
        ]
        if interval != frame.interval_minutes:
            buckets: dict[int, list[float]] = {}
            for t, v in rows:
                buckets.setdefault(t // interval * interval, []).append(v)
            rows = [(t, sum(vs) / len(vs)) for t, vs in sorted(buckets.items()) if lo <= t < hi]
        if q.is_ranged and not rows:
            continue
        if remaining is not None:
            if remaining <= 0:
                break
            rows = rows[:remaining]
            remaining -= len(rows)
        out.add_server(
            metadata,
            LoadSeries(
                np.array([t for t, _ in rows], dtype=np.int64),
                np.array([v for _, v in rows], dtype=np.float64),
                interval,
                validate=False,
            ),
        )
    return out

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
