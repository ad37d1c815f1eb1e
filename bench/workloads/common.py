"""Helpers the drivers share: seeded fleet synthesis and lake space numbers."""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from bench.harness import Context
from repro import DataLakeStore, ExtractKey, FleetSpec, LoadFrame, WorkloadGenerator
from repro.storage import ExtractQuery


def synthesize_region(spec: FleetSpec, region: str, week: int) -> LoadFrame:
    """The ``(region, week)`` extract of ``spec``, with an exact class mix.

    ``populate_lake`` draws every server's class at random, so the number of
    short-lived servers -- and with it the rows stored and the models fitted
    -- swings by a tenth between seeds on fleets this small (a quarter on the
    18-server SSA fleet).  The benchmark has to read the same across seeds, so
    it fills the class quotas of ``spec.class_mix`` exactly (largest
    remainder) and lets the seed decide which servers get which class and
    every trace drawn for them.  Content is deterministic per
    ``(spec.seed, region, week)``, like the program's own weekly extracts.
    """
    n_servers = spec.region(region).n_servers
    salt = zlib.crc32(f"{region}|w{week}".encode())
    generator = WorkloadGenerator(replace(spec, seed=(spec.seed * 1_000_003 + salt) % 2**31))
    classes = list(spec.class_mix)
    shares = np.array([spec.class_mix[cls] for cls in classes]) * n_servers
    quota = np.floor(shares).astype(int)
    for index in np.argsort(-(shares - quota), kind="stable")[: n_servers - quota.sum()]:
        quota[index] += 1
    assigned = [cls for cls, count in zip(classes, quota) for _ in range(count)]
    order = np.random.default_rng([spec.seed, salt]).permutation(n_servers)
    frame = LoadFrame(spec.interval_minutes)
    for index in range(n_servers):
        server = generator.generate_server(
            f"{region}-srv-{index:05d}", region, assigned[order[index]]
        )
        frame.add_server(server.metadata, server.series)
    return frame


def populate(lake: DataLakeStore, spec: FleetSpec, weeks: Iterable[int]) -> list[ExtractKey]:
    """Write one synthesized extract per ``(region, week)``; returns the keys."""
    keys = []
    for region in spec.region_names():
        for week in weeks:
            key = ExtractKey(region=region, week=week)
            lake.write_extract(key, synthesize_region(spec, region, week))
            keys.append(key)
    return keys


def tree_bytes(root: Path) -> int:
    """All bytes stored under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def lake_gauges(ctx: Context, lake: DataLakeStore) -> None:
    """Space numbers of a lake: rows stored, bytes per row, txlog size."""
    root = lake.root
    assert root is not None  # every benchmark lake is on disk
    counted = lake.query(ExtractQuery(aggregates=("count",))).aggregates or {}
    rows = sum(int(group["count"]) for group in counted.values())
    ctx.gauges["telemetry.rows"] = rows
    ctx.gauges["datalake.lake_bytes_per_row"] = tree_bytes(root) / max(1, rows)
    ctx.gauges["manifest.txlog_bytes"] = sum(
        path.stat().st_size for path in root.rglob("txlog.jsonl")
    )
