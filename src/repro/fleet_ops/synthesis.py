"""Synthetic multi-region lake population for fleet runs.

Production Seagull consumes the extracts the load-extraction query writes
per region and week; tests, benchmarks and the CLI need the same lake
layout filled with synthetic telemetry.  :func:`populate_lake` writes one
deterministic extract per ``(region, week)`` of a fleet spec.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.telemetry.fleet import FleetSpec
from repro.telemetry.generator import WorkloadGenerator

#: Manifest file recording which spec a lake's extracts came from.
SPEC_MANIFEST_NAME = "_fleet_spec.json"


def _spec_manifest(spec: FleetSpec) -> dict[str, object]:
    """The spec fields that determine extract content."""
    return {
        "seed": spec.seed,
        "weeks": spec.weeks,
        "interval_minutes": spec.interval_minutes,
        "regions": [[region.name, region.n_servers] for region in spec.regions],
        "class_mix": {cls.value: fraction for cls, fraction in spec.class_mix.items()},
        "engine_mix": dict(spec.engine_mix),
        "capacity_reaching_fraction": spec.capacity_reaching_fraction,
        "busy_fraction": spec.busy_fraction,
    }


def populate_lake(
    lake: DataLakeStore,
    spec: FleetSpec,
    weeks: Iterable[int] | None = None,
) -> list[ExtractKey]:
    """Write one weekly extract per ``(region, week)`` into ``lake``.

    ``weeks`` defaults to ``range(spec.weeks)``.  Existing extracts are
    kept -- content is deterministic per key within one spec, so
    re-generating them would be wasted work.  The lake records the spec
    in a ``_fleet_spec.json`` manifest: when the spec changes (seed,
    region sizes, horizon, ...), existing extracts are stale and are
    regenerated instead of silently reused.  Returns every key now
    present for the spec.
    """
    manifest_path = lake.root / SPEC_MANIFEST_NAME
    manifest = _spec_manifest(spec)
    stored: object = None
    if manifest_path.exists():
        try:
            stored = json.loads(manifest_path.read_text())
        except (ValueError, OSError):
            stored = None
    same_spec = stored == manifest
    if not same_spec:
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    generator = WorkloadGenerator(spec)
    week_list = list(weeks) if weeks is not None else list(range(spec.weeks))
    keys: list[ExtractKey] = []
    for region in spec.regions:
        for week in week_list:
            key = ExtractKey(region=region.name, week=week)
            keys.append(key)
            if same_spec and lake.has_extract(key):
                continue
            lake.write_extract(key, generator.generate_weekly_extract(region, week))
    return keys
