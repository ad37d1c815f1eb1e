"""Fleet and region specifications for the synthetic telemetry generator.

Figure 3 of the paper classifies a sample of several tens of thousands of
PostgreSQL/MySQL servers into: 42.1% short-lived, 53.5% long-lived stable,
0.2% long-lived with a daily or weekly pattern, and 4.2% long-lived without
any pattern.  The default fleet specification reproduces that mix so that
the classification experiment (and everything downstream of it) sees the
same population structure the paper saw.

Appendix A reports that 19.36% of sampled SQL databases are stable under
the standard-deviation rule; :func:`sql_database_fleet_spec` encodes that
second population.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field, replace


class ServerClass(enum.Enum):
    """Ground-truth workload classes used by the synthetic generator."""

    STABLE = "stable"
    DAILY = "daily"
    WEEKLY = "weekly"
    UNSTABLE = "unstable"
    SHORT_LIVED = "short_lived"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Class mix calibrated to Figure 3 of the paper.
FLEET_CLASS_MIX: dict[ServerClass, float] = {
    ServerClass.SHORT_LIVED: 0.421,
    ServerClass.STABLE: 0.535,
    ServerClass.DAILY: 0.001,
    ServerClass.WEEKLY: 0.001,
    ServerClass.UNSTABLE: 0.042,
}

#: Fraction of SQL databases that are stable under the Appendix A rule.
SQL_STABLE_FRACTION = 0.1936

#: Fraction of servers whose weekly maximum reaches CPU capacity
#: (Figure 13(b): only 3.7% of servers reach capacity).
CAPACITY_REACHING_FRACTION = 0.037

#: Fraction of servers considered "busy" (load over 60% of capacity),
#: used by the Figure 13(a) impact analysis.
BUSY_FRACTION = 0.12


@dataclass(frozen=True)
class RegionSpec:
    """One Azure-style region: a name and a number of servers.

    The paper's per-region extract sizes range from hundreds of kilobytes to
    a few gigabytes; in this reproduction region size is expressed directly
    as a server count, which is what drives extract size and pipeline
    runtime.
    """

    name: str
    n_servers: int

    def __post_init__(self) -> None:
        if self.n_servers < 0:
            raise ValueError("n_servers must be non-negative")
        if not self.name:
            raise ValueError("region name must be non-empty")


@dataclass(frozen=True)
class FleetSpec:
    """A full synthetic fleet: regions, class mix and trace parameters."""

    regions: tuple[RegionSpec, ...]
    class_mix: dict[ServerClass, float] = field(default_factory=lambda: dict(FLEET_CLASS_MIX))
    weeks: int = 4
    interval_minutes: int = 5
    engine_mix: dict[str, float] = field(
        default_factory=lambda: {"postgresql": 0.6, "mysql": 0.4}
    )
    #: Fraction of servers whose weekly max load reaches capacity (Fig. 13(b)).
    capacity_reaching_fraction: float = CAPACITY_REACHING_FRACTION
    #: Fraction of busy servers (load above 60% of capacity).
    busy_fraction: float = BUSY_FRACTION
    seed: int = 7

    def __post_init__(self) -> None:
        total = sum(self.class_mix.values())
        if not 0.999 <= total <= 1.001:
            raise ValueError(f"class mix must sum to 1.0, got {total:.4f}")
        if self.weeks < 1:
            raise ValueError("a fleet must cover at least one week")
        if self.interval_minutes <= 0:
            raise ValueError("interval_minutes must be positive")

    def region(self, name: str) -> RegionSpec:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"region {name!r} not in fleet spec")

    def region_names(self) -> list[str]:
        return [region.name for region in self.regions]


def default_fleet_spec(
    servers_per_region: tuple[int, ...] = (400, 200, 100, 50),
    weeks: int = 4,
    seed: int = 7,
) -> FleetSpec:
    """Return the default four-region fleet used across tests and benchmarks.

    The paper runs its model comparison on four regions of different sizes
    (Section 5.3.1); region sizes here are scaled down so the benchmarks run
    on a laptop while preserving the size ordering.
    """
    regions = tuple(
        RegionSpec(name=f"region-{index}", n_servers=count)
        for index, count in enumerate(servers_per_region)
    )
    return FleetSpec(regions=regions, weeks=weeks, seed=seed)


def extract_spec(spec: FleetSpec, region: str, week: int) -> FleetSpec:
    """Spec snapshot behind one ``(region, week)`` extract.

    The fleet orchestrator processes many weekly extracts per region; each
    extract is an independent telemetry snapshot, so its generator seed is
    derived deterministically from the fleet seed, the region and the week.
    Re-generating the same ``(region, week)`` yields byte-identical content
    (which is what makes extract content hashes usable as cache keys),
    while different regions or weeks get uncorrelated traces.
    """
    if week < 0:
        raise ValueError("week must be non-negative")
    salt = zlib.crc32(f"{region}|w{week}".encode())
    return replace(spec, seed=(spec.seed * 1_000_003 + salt) % 2**31)


def sql_database_fleet_spec(
    n_databases: int = 500,
    weeks: int = 4,
    seed: int = 17,
) -> FleetSpec:
    """Return the Appendix A SQL-database fleet (15-minute granularity).

    The class mix is tuned so roughly 19.36% of databases come out stable
    under the standard-deviation rule of Definition 10; the rest are
    dominated by pattern-free and daily-pattern traces, which better matches
    single SQL databases than the server mix of Figure 3.
    """
    class_mix = {
        ServerClass.STABLE: 0.20,
        ServerClass.DAILY: 0.25,
        ServerClass.WEEKLY: 0.10,
        ServerClass.UNSTABLE: 0.35,
        ServerClass.SHORT_LIVED: 0.10,
    }
    regions = (RegionSpec(name="sql-region-0", n_servers=n_databases),)
    return FleetSpec(
        regions=regions,
        class_mix=class_mix,
        weeks=weeks,
        interval_minutes=15,
        engine_mix={"sql": 1.0},
        seed=seed,
    )
