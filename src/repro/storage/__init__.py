"""Storage substrates standing in for the Azure services the paper uses.

* :mod:`~repro.storage.csv_io` -- the weekly extract CSV schema (Section
  5.3.1): the lake's import and export edge, never a stored format.
* :class:`~repro.storage.datalake.DataLakeStore` -- a local, partitioned
  file store playing the role of Azure Data Lake Store (ADLS): extracts are
  keyed by ``(region, week)`` and stored as ``.sgx`` segments.
* :mod:`~repro.storage.columnar` -- the binary columnar ``.sgx`` extract
  format: dictionary-encoded metadata, per-server column chunks with
  zone maps and checksums; a column buffer becomes an array through
  ``numpy.frombuffer``, with no copy and no parse.
* :mod:`~repro.storage.query` -- the typed extract-query surface:
  :class:`~repro.storage.query.ExtractQuery` (frozen, hashable,
  cache-keyable), :class:`~repro.storage.query.QueryResult` and
  :class:`~repro.storage.query.ScanStats`.  ``DataLakeStore.query`` /
  ``.scan`` are the one read path; server filters and column projections
  are pushed down into the ``.sgx`` reader.
* :mod:`~repro.storage.aggregate` -- the aggregate-query merge core:
  :class:`~repro.storage.aggregate.AggregateAccumulator` folds ``.sgx``
  chunk-table statistics, decoded slices and live-tail rows into one exact
  answer (pairwise Welford merge for mean/variance), which is what lets
  ``aggregates=(...)`` queries skip decoding value buffers entirely for
  fully covered chunks.
* :mod:`~repro.storage.migrate` -- the ``convert`` CLI's engine: one
  adopt transaction takes in pre-manifest extract files and an older
  lake's CSV entries (CSV as verified ``.sgx`` segments) and folds its
  seal watermarks into a generation; then segments are re-chunked in
  place.
* :mod:`~repro.storage.manifest` -- the transactional lake manifest:
  generation-numbered, atomically published snapshots over immutable
  content-addressed segment files, a log of the one transaction in
  flight, and crash recovery -- the durability layer every
  :class:`~repro.storage.datalake.DataLakeStore` mutation goes through.
* :class:`~repro.storage.artifacts.ArtifactStore` -- a content-addressed
  cache of pipeline stage outputs keyed by extract content hash, which is
  what lets fleet re-runs skip recomputation on unchanged extracts: a
  directory of checksummed one-entry files published by atomic rename.
"""

from repro.storage.aggregate import (
    AGGREGATE_GROUP_KEYS,
    AGGREGATE_REDUCTIONS,
    AggregateAccumulator,
)
from repro.storage.artifacts import ArtifactCacheStats, ArtifactStore, artifact_key
from repro.storage.columnar import (
    COLUMNS,
    DEFAULT_CHUNK_MINUTES,
    ColumnarFormatError,
    SgxReadStats,
    aggregate_sgx_bytes,
    frame_from_sgx_bytes,
    frame_to_sgx_bytes,
    scan_sgx_bytes,
)
from repro.storage.csv_io import write_frame_csv
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.manifest import (
    GcReport,
    LakeManifest,
    LakeManifestError,
    ManifestSnapshot,
    SegmentEntry,
)
from repro.storage.migrate import LakeConversionReport, convert_lake
from repro.storage.query import ExtractQuery, QueryError, QueryResult, ScanStats
from repro.timeseries.calendar import MAX_MINUTE, MIN_MINUTE

__all__ = [
    "write_frame_csv",
    "frame_from_sgx_bytes",
    "frame_to_sgx_bytes",
    "aggregate_sgx_bytes",
    "scan_sgx_bytes",
    "AGGREGATE_GROUP_KEYS",
    "AGGREGATE_REDUCTIONS",
    "AggregateAccumulator",
    "ColumnarFormatError",
    "SgxReadStats",
    "COLUMNS",
    "DEFAULT_CHUNK_MINUTES",
    "MIN_MINUTE",
    "MAX_MINUTE",
    "DataLakeStore",
    "ExtractKey",
    "ExtractQuery",
    "QueryError",
    "QueryResult",
    "ScanStats",
    "ArtifactStore",
    "ArtifactCacheStats",
    "artifact_key",
    "convert_lake",
    "LakeConversionReport",
    "GcReport",
    "LakeManifest",
    "LakeManifestError",
    "ManifestSnapshot",
    "SegmentEntry",
]
