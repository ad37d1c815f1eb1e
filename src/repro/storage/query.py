"""Typed, declarative extract queries: the lake's one read surface.

:class:`ExtractQuery` is one frozen, hashable value describing *what* to
read from the lake's ``.sgx`` segments (and, on unpinned stores, the live
tail riding after them):

* **partitions** -- ``regions`` / ``weeks`` select which ``(region,
  week)`` extracts are scanned (extract keys are partition names, not
  data bounds: an extract for week ``w`` may carry a multi-week training
  horizon, so the time range below never prunes *keys*);
* **rows** -- a half-open ``[start_minute, end_minute)`` time range plus
  a total row ``limit``;
* **servers** -- an id allow-list (``servers``) and a metadata predicate
  (``engines``), both pushed down into the ``.sgx`` reader so excluded
  servers' chunks are never decoded or checksummed;
* **columns** -- a projection over :data:`~repro.storage.columnar.COLUMNS`;
  excluding ``values`` skips decoding and checksumming every values
  buffer, and the materialised series carry NaN values;
* **resolution** -- ``interval_minutes``: extracts are read at the
  interval they record and bucket-mean resampled onto this one;
* **aggregates** -- ``aggregates=(...)`` turns the query into a
  reduction (``count`` / ``sum`` / ``min`` / ``max`` / ``mean`` /
  ``variance`` / ``std``), optionally grouped via ``group_by`` over
  ``server`` and/or absolute ``day``.  Aggregate queries return no
  frame; they are answered from chunk-table statistics without decoding
  value buffers wherever a chunk lies fully inside the time range and
  scope (see :func:`~repro.storage.columnar.aggregate_sgx_bytes`).

Queries are value objects: equivalent constructions (list vs tuple server
ids, unordered inputs) normalise to the same instance and hash equal.
They are also the fleet's unit of worker handoff -- the orchestrator
ships ``(lake root, ExtractQuery)`` to process workers instead of whole
extract payloads.

:class:`QueryResult` pairs the materialised
:class:`~repro.timeseries.frame.LoadFrame` with a :class:`ScanStats`
telling exactly how much work the pushdowns avoided (chunks pruned,
servers skipped, column buffers skipped, bytes CRC-verified vs stored).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.storage.aggregate import check_group_by, check_reductions
from repro.storage.columnar import COLUMNS, SgxReadStats, normalize_columns
from repro.timeseries.calendar import (
    DEFAULT_INTERVAL_MINUTES,
    MAX_MINUTE,
    MIN_MINUTE,
)
from repro.timeseries.frame import LoadFrame, ServerMetadata

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (datalake imports us)
    from repro.storage.datalake import ExtractKey

class QueryError(ValueError):
    """Raised for malformed queries and unanswerable query shapes."""


def _name_tuple(value, what: str) -> tuple[str, ...] | None:
    """Normalise an optional name collection to a sorted, deduplicated
    tuple (a lone string counts as a single name, not as characters)."""
    if value is None:
        return None
    names = (value,) if isinstance(value, str) else tuple(value)
    for name in names:
        if not isinstance(name, str):
            raise QueryError(f"{what} must be strings, got {name!r}")
    return tuple(sorted(set(names)))


def _week_tuple(value) -> tuple[int, ...] | None:
    if value is None:
        return None
    weeks = (value,) if isinstance(value, int) else tuple(value)
    normalized = []
    for week in weeks:
        if not isinstance(week, int) or isinstance(week, bool) or week < 0:
            raise QueryError(f"weeks must be non-negative integers, got {week!r}")
        normalized.append(week)
    return tuple(sorted(set(normalized)))


@dataclass(frozen=True)
class ExtractQuery:
    """One declarative read against a :class:`~repro.storage.datalake.
    DataLakeStore` -- frozen, hashable, picklable.

    Every field is normalised on construction (collections become sorted
    tuples, columns take their canonical order), so two equivalent
    queries -- ``servers=["b", "a"]`` vs ``servers=("a", "b")`` -- are
    equal, hash equal and key caches identically.
    """

    #: Region partitions to scan (``None``: every region).
    regions: tuple[str, ...] | None = None
    #: Week partitions to scan (``None``: every week).
    weeks: tuple[int, ...] | None = None
    #: Half-open row time range; ``None`` bounds are open.
    start_minute: int | None = None
    end_minute: int | None = None
    #: Server-id allow-list (``None``: every server).
    servers: tuple[str, ...] | None = None
    #: Metadata predicate: keep only servers with one of these engines.
    engines: tuple[str, ...] | None = None
    #: Column projection; must include ``timestamps`` (the series index).
    columns: tuple[str, ...] = COLUMNS
    #: Cap on total rows materialised (scans stop once it is reached).
    limit: int | None = None
    #: Sampling interval of the result; ``None`` means "whatever the
    #: extract records" (the ``.sgx`` header value).
    interval_minutes: int | None = DEFAULT_INTERVAL_MINUTES
    #: Reductions to compute instead of materialising rows (``None``:
    #: a row query).  Canonicalised subset of
    #: :data:`~repro.storage.aggregate.AGGREGATE_REDUCTIONS`.
    aggregates: tuple[str, ...] | None = None
    #: Group keys for an aggregate query, over ``server`` and/or absolute
    #: ``day`` (``minute // 1440``).  Only valid with ``aggregates``.
    group_by: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", _name_tuple(self.regions, "regions"))
        object.__setattr__(self, "weeks", _week_tuple(self.weeks))
        object.__setattr__(self, "servers", _name_tuple(self.servers, "servers"))
        object.__setattr__(self, "engines", _name_tuple(self.engines, "engines"))
        columns = (
            (self.columns,) if isinstance(self.columns, str) else tuple(self.columns)
        )
        try:
            normalize_columns(columns)
        except ValueError as exc:
            raise QueryError(str(exc)) from None
        object.__setattr__(
            self, "columns", tuple(column for column in COLUMNS if column in columns)
        )
        if (
            self.start_minute is not None
            and self.end_minute is not None
            and self.end_minute < self.start_minute
        ):
            raise QueryError(
                f"end_minute ({self.end_minute}) must not be before "
                f"start_minute ({self.start_minute})"
            )
        if self.limit is not None and (not isinstance(self.limit, int) or self.limit < 0):
            raise QueryError(f"limit must be a non-negative integer, got {self.limit!r}")
        if self.interval_minutes is not None and self.interval_minutes <= 0:
            raise QueryError("interval_minutes must be positive (or None)")
        if self.aggregates is not None:
            try:
                object.__setattr__(self, "aggregates", check_reductions(self.aggregates))
                if self.group_by is not None:
                    object.__setattr__(self, "group_by", check_group_by(self.group_by))
            except ValueError as exc:
                raise QueryError(str(exc)) from None
            if self.limit is not None:
                raise QueryError(
                    "limit cannot be combined with aggregates -- a row cap over "
                    "an unordered multi-extract scan would make the reductions "
                    "depend on scan order"
                )
            if self.columns != COLUMNS:
                raise QueryError(
                    "column projections cannot be combined with aggregates -- "
                    "the aggregate mode decides per chunk which buffers to read"
                )
        elif self.group_by is not None:
            raise QueryError("group_by requires aggregates")

    # ------------------------------------------------------------------ #

    @classmethod
    def for_key(cls, key: "ExtractKey", **overrides: Any) -> "ExtractQuery":
        """A query pinned to one ``(region, week)`` extract."""
        return cls(regions=(key.region,), weeks=(key.week,), **overrides)

    def matches_key(self, key: "ExtractKey") -> bool:
        """Whether partition ``key`` falls inside this query's scope."""
        if self.regions is not None and key.region not in self.regions:
            return False
        return self.weeks is None or key.week in self.weeks

    @property
    def is_ranged(self) -> bool:
        """Whether a row time range is set (ranged reads drop servers
        whose series end up empty; full reads keep them)."""
        return self.start_minute is not None or self.end_minute is not None

    @property
    def wants_values(self) -> bool:
        return "values" in self.columns

    @property
    def is_aggregate(self) -> bool:
        """Whether this query computes reductions instead of rows."""
        return self.aggregates is not None

    def time_range(self) -> tuple[int, int]:
        """The half-open row range with open bounds made explicit."""
        return (
            self.start_minute if self.start_minute is not None else MIN_MINUTE,
            self.end_minute if self.end_minute is not None else MAX_MINUTE,
        )

    def metadata_predicate(self) -> Callable[[ServerMetadata], bool] | None:
        """The pushdown form of the metadata filters (``None``: keep all)."""
        if self.engines is None:
            return None
        engines = frozenset(self.engines)
        return lambda metadata: metadata.engine in engines


@dataclass
class ScanStats:
    """What one query/scan did -- and, more importantly, did not -- do.

    ``payload_bytes_stored`` counts the payload bytes of every chunk the
    scan walked; ``payload_bytes_verified`` counts the bytes actually
    CRC-checked and ingested.  The gap between the two is what zone-map
    pruning, server filtering and column projection saved.

    Aggregate queries additionally count ``chunks_answered_from_stats``
    (chunks whose reductions came from stored chunk-table pre-aggregates)
    and ``bytes_decoded_avoided`` (those chunks' payload bytes, never
    read or checksummed).
    """

    extracts_scanned: int = 0
    chunks_seen: int = 0
    chunks_pruned: int = 0
    servers_seen: int = 0
    servers_skipped: int = 0
    columns_skipped: int = 0
    chunks_answered_from_stats: int = 0
    bytes_decoded_avoided: int = 0
    payload_bytes_stored: int = 0
    payload_bytes_verified: int = 0
    rows: int = 0
    #: Raw (pre-bucketing) samples read from live tail WALs -- rows not
    #: yet sealed into any committed segment.  Zero for committed-only
    #: answers; the live/committed split of a unified read.
    tail_rows_scanned: int = 0

    def absorb_sgx(self, read: SgxReadStats) -> None:
        """Fold one ``.sgx`` read's counters into this rollup."""
        self.chunks_seen += read.chunks_seen
        self.chunks_pruned += read.chunks_pruned
        self.servers_seen += read.servers_seen
        self.servers_skipped += read.servers_skipped
        self.columns_skipped += read.columns_skipped
        self.chunks_answered_from_stats += read.chunks_answered_from_stats
        self.bytes_decoded_avoided += read.bytes_decoded_avoided
        self.payload_bytes_stored += read.payload_bytes_total
        self.payload_bytes_verified += read.payload_bytes_verified

    @property
    def verified_fraction(self) -> float:
        """Verified payload bytes over stored payload bytes (1.0 when
        nothing was stored -- an empty scan avoided nothing)."""
        if not self.payload_bytes_stored:
            return 1.0
        return self.payload_bytes_verified / self.payload_bytes_stored

    def as_dict(self) -> dict[str, int | float]:
        return {
            "extracts_scanned": self.extracts_scanned,
            "chunks_seen": self.chunks_seen,
            "chunks_pruned": self.chunks_pruned,
            "servers_seen": self.servers_seen,
            "servers_skipped": self.servers_skipped,
            "columns_skipped": self.columns_skipped,
            "chunks_answered_from_stats": self.chunks_answered_from_stats,
            "bytes_decoded_avoided": self.bytes_decoded_avoided,
            "payload_bytes_stored": self.payload_bytes_stored,
            "payload_bytes_verified": self.payload_bytes_verified,
            "rows": self.rows,
            "tail_rows_scanned": self.tail_rows_scanned,
        }


@dataclass
class QueryResult:
    """The materialised answer to one :class:`ExtractQuery`.

    A row query fills ``frame``; an aggregate query leaves the frame
    empty and fills ``aggregates`` -- a mapping from group-key tuple (in
    ``group_by`` order; the empty tuple for the global aggregate) to the
    requested reductions.  Groups only exist once at least one sample
    folded into them, so the mapping is NaN-free and an empty scope is
    an empty mapping.
    """

    query: ExtractQuery
    frame: LoadFrame
    stats: ScanStats = field(default_factory=ScanStats)
    aggregates: dict[tuple, dict[str, float | int]] | None = None

    @property
    def rows(self) -> int:
        return self.frame.total_points()

    @property
    def n_servers(self) -> int:
        return len(self.frame)


def truncate_series(series, keep: int):
    """The first ``keep`` samples of ``series`` (positional, for limits)."""
    from repro.timeseries.series import LoadSeries

    if keep >= len(series):
        return series
    return LoadSeries(
        series.timestamps[:keep].copy(),
        series.values[:keep].copy(),
        series.interval_minutes,
        validate=False,
    )


def resample_series(series, interval_minutes: int | None, rng: tuple[int, int] | None = None):
    """Bucket-mean ``series`` onto the ``interval_minutes`` grid.

    The honest half of ``ExtractQuery.interval_minutes``: extracts are
    read at the interval they record and this puts them on the interval
    the query *asked for* (epoch-aligned bucket means via
    :func:`repro.timeseries.resample.regularize`).  A no-op when the
    intervals already agree.  ``rng`` re-applies the query's half-open
    time range afterwards, because a bucket start can land just below
    the range's first in-range sample.
    """
    if interval_minutes is None or series.interval_minutes == interval_minutes:
        return series
    from repro.timeseries.resample import regularize

    series = regularize(series.timestamps, series.values, interval_minutes)
    if rng is not None:
        series = series.slice(*rng)
    return series


def project_series(series, wants_values: bool, rng: tuple[int, int] | None):
    """The ``.sgx`` pushdowns' equivalents for rows that never were in a
    segment (the live tail): slice ``series`` to ``rng`` and blank
    unprojected values to NaN."""
    import numpy as np

    if rng is not None:
        series = series.slice(*rng)
    if not wants_values:
        series = series.with_values(np.full(len(series), np.nan))
    return series


__all__ = [
    "ExtractQuery",
    "QueryError",
    "QueryResult",
    "ScanStats",
    "project_series",
    "resample_series",
    "truncate_series",
]
