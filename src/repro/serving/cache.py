"""LRU prediction cache.

The backup scheduler and the autoscale predictor ask the serving layer for
overlapping horizon windows every day; re-running a model for a question it
already answered is wasted inference.  The cache keys on everything that
determines a prediction's value -- ``(region, server, version, horizon)``;
a deployed version never changes, so a redeployment (a new version) can
never serve a stale series, while repeated queries against an unchanged
deployment are answered without touching the model.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.timeseries.series import LoadSeries

#: Cache key: (region, server_id, version, n_points).
CacheKey = tuple[str, str, int, int]


@dataclass(frozen=True)
class PredictionCacheStats:
    """Counters exposed on the serving health surface."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class PredictionCache:
    """Bounded, thread-safe LRU cache of served prediction series.

    One :class:`~repro.serving.service.PredictionService` may be called
    from several threads at once (a collector thread's live bridge beside
    consumers of the same service), so all bookkeeping happens under one
    lock; the cached payloads are immutable
    :class:`~repro.timeseries.series.LoadSeries`, so sharing them across
    threads is safe.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._capacity = capacity
        self._entries: OrderedDict[CacheKey, LoadSeries] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> LoadSeries | None:
        """Return the cached series for ``key``, refreshing its recency."""
        with self._lock:
            series = self._entries.get(key)
            if series is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return series

    def put(self, key: CacheKey, series: LoadSeries) -> None:
        """Store ``series`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = series
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> PredictionCacheStats:
        with self._lock:
            return PredictionCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )
