"""Content-addressed artifact cache for pipeline stage outputs.

The fleet orchestrator re-runs the Seagull pipeline over many (region,
week) extracts on every scheduling cycle, but most extracts do not change
between cycles.  The artifact store persists the expensive stage outputs
(extracted features, fitted-model predictions, accuracy evaluations, whole
unit outcomes) keyed by a *content hash* of the stage inputs, so a re-run
on identical input skips the computation entirely.

Keys are ``sha256(stage || input content hash || canonical parameter
JSON)``: any change to the extract content or to a parameter that feeds
the stage produces a different key, i.e. cache invalidation is structural
rather than time-based.  Each entry is its own file carrying a checksum
over its stored bytes; entries that fail to decode or whose checksum
mismatches (partial writes, bit rot, manual edits) are treated as misses,
evicted and recomputed -- the cache can never poison a run, and damage
costs one entry, never the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Version of the cache entry envelope; bump to invalidate all entries.
_ENVELOPE_VERSION = 1

#: ``<stage>-<sha256 hex>``, the only shape :func:`artifact_key` produces.
_KEY = re.compile(r"([A-Za-z0-9_]+)-([0-9a-f]{64})")


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def content_digest(data: bytes | str) -> str:
    """Hex sha256 digest of raw content."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def artifact_key(stage: str, input_hash: str, params: Mapping[str, Any]) -> str:
    """Build the cache key for one stage invocation.

    ``input_hash`` is the content hash of the stage's data input (for
    pipeline stages, :meth:`repro.timeseries.frame.LoadFrame.content_hash`;
    for unit outcomes, the raw extract fingerprint) and ``params`` are the
    configuration values the stage's output depends on.
    """
    material = canonical_json(
        {"stage": stage, "input": input_hash, "params": dict(params), "v": _ENVELOPE_VERSION}
    )
    return f"{stage}-{content_digest(material)}"


@dataclass
class ArtifactCacheStats:
    """Hit/miss counters of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt_entries: int = 0
    failed_evictions: int = 0
    hits_by_stage: dict[str, int] = field(default_factory=dict)
    misses_by_stage: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt_entries": self.corrupt_entries,
            "failed_evictions": self.failed_evictions,
            "hit_rate": self.hit_rate,
            "hits_by_stage": dict(self.hits_by_stage),
            "misses_by_stage": dict(self.misses_by_stage),
        }


class ArtifactStore:
    """Keyed artifact cache: a directory holding one file per entry.

    ``<cache_dir>/<stage>/<sha256>.json`` is a header line
    ``{"sha256": ..., "v": ...}`` followed by the compact JSON payload the
    checksum covers.  Entries are written to a unique temporary name and
    ``os.replace``d into place, so any number of handles -- threads, pool
    workers, separate runs -- may share one directory: a reader sees a
    whole entry or none.  Nothing is fsynced; an entry torn by a crash
    fails its checksum and is recomputed.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self._root = Path(cache_dir)
        self._stats = ArtifactCacheStats()

    @classmethod
    def at(cls, cache_dir: str | Path) -> "ArtifactStore":
        """Open the artifact cache in ``cache_dir`` (created on first put).

        The one supported way to open a store; call this, not the class.
        """
        return cls(cache_dir)

    @property
    def stats(self) -> ArtifactCacheStats:
        return self._stats

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached payload for ``key``, or ``None`` on a miss.

        A torn, edited or wrong-version entry counts as a miss and is
        evicted, so a corrupt cache degrades to recomputing that one entry
        instead of crashing or silently returning bad data.
        """
        stage, path = self._locate(key)
        payload: dict[str, Any] | None = None
        try:
            payload = _decode(path.read_bytes())
        except (ValueError, KeyError, TypeError, IsADirectoryError):
            self._stats.corrupt_entries += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                # The entry stays corrupt on disk; record that eviction
                # failed so the degradation is observable in stats.
                self._stats.failed_evictions += 1
        except OSError:
            # No entry, or a read failure (EACCES, EMFILE, EIO) that says
            # nothing about the file's content: a plain miss, file kept.
            pass
        if payload is None:
            self._stats.misses += 1
            self._stats.misses_by_stage[stage] = self._stats.misses_by_stage.get(stage, 0) + 1
            return None
        self._stats.hits += 1
        self._stats.hits_by_stage[stage] = self._stats.hits_by_stage.get(stage, 0) + 1
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store ``payload`` under ``key`` with an integrity checksum."""
        _, path = self._locate(key)
        body = canonical_json(dict(payload)).encode("utf-8")
        head = canonical_json({"v": _ENVELOPE_VERSION, "sha256": content_digest(body)})
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{uuid.uuid4().hex}")
        try:
            tmp.write_bytes(head.encode("utf-8") + b"\n" + body)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        self._stats.puts += 1

    def _locate(self, key: str) -> tuple[str, Path]:
        """Stage and entry file of ``key``; keys become file names, so
        anything but ``<stage>-<sha256>`` is rejected before any I/O."""
        match = _KEY.fullmatch(key)
        if match is None:
            raise ValueError(f"artifact key must be '<stage>-<64 hex digits>', got {key!r}")
        stage, sha = match.groups()
        return stage, self._root / stage / f"{sha}.json"


def _decode(raw: bytes) -> dict[str, Any]:
    """Payload of one entry file; anything else raises (see ``get``)."""
    head, _, body = raw.partition(b"\n")
    header = json.loads(head)
    if header["v"] != _ENVELOPE_VERSION or header["sha256"] != content_digest(body):
        raise ValueError("wrong envelope version or checksum mismatch")
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError("artifact payload is not an object")
    return payload
