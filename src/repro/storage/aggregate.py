"""Decode-free aggregation over extract chunks: the merge core.

Fleet-wide rollups (the Figure 12a/13-style runtime and load summaries)
used to decode every value buffer just to compute a handful of
reductions.  ``.sgx`` format v4 stores per-chunk, per-column
pre-aggregates (count / sum / min / max / sum-of-squares) in the chunk
table, so a chunk lying fully inside a query's time range and
server/engine scope can be *answered from its statistics* without its
payload ever being read -- the same pre-computed-annotation move that
replaces full traversals with window-function lookups in DMR-XPath.

This module owns the algebra that makes mixing the two sources exact:

* :class:`GroupState` accumulates one group's running moments.  Mean and
  variance are kept as ``(count, mean, M2)`` and merged with the pairwise
  (Chan et al.) update -- the parallel generalisation of Welford's
  algorithm -- so folding chunk statistics, folding decoded arrays and
  merging partial accumulators all agree to floating-point accuracy,
  independent of fold order.
* :class:`AggregateAccumulator` maps group keys (``server`` and/or
  absolute ``day``) to states and knows how to fold decoded column
  arrays (splitting at day boundaries when the grouping asks for it),
  fold stored chunk statistics, and merge whole accumulators.

Results are NaN-free by construction: a group only exists once at least
one sample folded into it, so ``min``/``max``/``mean`` are always
defined, and an empty scope yields an empty mapping rather than rows of
NaN.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.timeseries.calendar import MINUTES_PER_DAY

#: Reductions a query may request, in canonical (output) order.
#: ``count`` needs no value bytes at all -- a count-only aggregate is
#: answered from chunk headers on *every* format version; the rest need
#: the v4 value statistics (or a decode).
AGGREGATE_REDUCTIONS = ("count", "sum", "min", "max", "mean", "variance", "std")

#: Grouping keys a query may ask for, in canonical order.  ``server``
#: groups by server id (decided from the record header alone); ``day``
#: groups by absolute day index (``minute // 1440``), which chunk
#: statistics can answer whenever a chunk does not straddle a day
#: boundary -- the writer's default per-day chunking guarantees exactly
#: that.
AGGREGATE_GROUP_KEYS = ("server", "day")


def check_reductions(aggregates: Iterable[str] | str) -> tuple[str, ...]:
    """Validate and canonicalise a reduction list (sorted, deduplicated)."""
    names = (aggregates,) if isinstance(aggregates, str) else tuple(aggregates)
    unknown = [name for name in names if name not in AGGREGATE_REDUCTIONS]
    if unknown:
        raise ValueError(
            f"unknown aggregate reduction(s) {unknown!r}; "
            f"expected a subset of {AGGREGATE_REDUCTIONS}"
        )
    if not names:
        raise ValueError("aggregates must name at least one reduction")
    return tuple(name for name in AGGREGATE_REDUCTIONS if name in names)


def check_group_by(group_by: Iterable[str] | str) -> tuple[str, ...]:
    """Validate and canonicalise a grouping list."""
    names = (group_by,) if isinstance(group_by, str) else tuple(group_by)
    unknown = [name for name in names if name not in AGGREGATE_GROUP_KEYS]
    if unknown:
        raise ValueError(
            f"unknown group_by key(s) {unknown!r}; "
            f"expected a subset of {AGGREGATE_GROUP_KEYS}"
        )
    return tuple(name for name in AGGREGATE_GROUP_KEYS if name in names)


def values_needed(aggregates: Iterable[str]) -> bool:
    """Whether these reductions need value statistics (or value bytes).

    ``count`` alone is answered from chunk headers (``n_points`` plus the
    zone map), which every supported format version carries.
    """
    return any(name != "count" for name in aggregates)


class GroupState:
    """Running aggregate moments of one group.

    ``total``/``minimum``/``maximum`` fold directly; the second moment is
    kept as ``(count, mean, m2)`` and combined with the pairwise update
    so merge order cannot change the answer beyond float rounding.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.mean = 0.0
        self.m2 = 0.0

    # -------------------------------------------------------------- #

    def _merge_moments(self, count: int, mean: float, m2: float) -> None:
        """Chan et al. pairwise combination of ``(count, mean, M2)``."""
        if count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = count, mean, m2
            return
        combined = self.count + count
        delta = mean - self.mean
        self.mean += delta * (count / combined)
        self.m2 += m2 + delta * delta * (self.count * count / combined)
        self.count = combined

    def fold_count(self, count: int) -> None:
        """Fold a bare sample count (count-only aggregates)."""
        self.count += count

    def fold_stats(
        self, count: int, total: float, minimum: float, maximum: float, sum_sq: float
    ) -> None:
        """Fold one chunk's stored pre-aggregates without any payload."""
        if count == 0:
            return
        mean = total / count
        # M2 = sum_sq - count * mean^2; clamp the cancellation residue so a
        # constant chunk can never fold a tiny negative variance.
        m2 = max(sum_sq - total * mean, 0.0)
        self.total += total
        self.minimum = min(self.minimum, minimum)
        self.maximum = max(self.maximum, maximum)
        self._merge_moments(count, mean, m2)

    def fold_array(self, values: np.ndarray) -> None:
        """Fold decoded value samples (the row path / partial chunks)."""
        count = int(values.shape[0])
        if count == 0:
            return
        mean = float(values.mean())
        self.total += float(values.sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))
        deltas = values - mean
        self._merge_moments(count, mean, float(np.dot(deltas, deltas)))

    def merge(self, other: "GroupState") -> None:
        """Fold another partial state into this one (exact pairwise merge)."""
        if other.count == 0:
            return
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self._merge_moments(other.count, other.mean, other.m2)

    # -------------------------------------------------------------- #

    def result(self, reductions: Iterable[str]) -> dict[str, float | int]:
        """The requested reductions of this group.

        Only called for groups that received at least one sample, so
        every reduction is well-defined (``variance`` is the population
        variance, ``ddof=0``).
        """
        out: dict[str, float | int] = {}
        for name in reductions:
            if name == "count":
                out[name] = self.count
            elif name == "sum":
                out[name] = self.total
            elif name == "min":
                out[name] = self.minimum
            elif name == "max":
                out[name] = self.maximum
            elif name == "mean":
                out[name] = self.mean
            elif name == "variance":
                out[name] = self.m2 / self.count if self.count else 0.0
            elif name == "std":
                out[name] = math.sqrt(self.m2 / self.count) if self.count else 0.0
        return out


class AggregateAccumulator:
    """Group keys -> :class:`GroupState`, plus the folding strategies.

    Group keys are tuples of the ``group_by`` values in canonical order
    (``server`` before ``day``); the global aggregate uses the empty
    tuple.  The accumulator is what every source folds into -- stored
    chunk statistics, decoded ``.sgx`` slices and live-tail rows all
    meet here, which is what makes the merged answer exact.
    """

    def __init__(self, aggregates: Iterable[str], group_by: Iterable[str] | None) -> None:
        self.aggregates = check_reductions(aggregates)
        self.group_by = check_group_by(group_by) if group_by is not None else ()
        #: Whether folds need value data (False: count-only, answerable
        #: from chunk headers on any format version).
        self.values_needed = values_needed(self.aggregates)
        self.by_day = "day" in self.group_by
        self._groups: dict[tuple, GroupState] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def group_key(self, server_id: str, day: int | None = None) -> tuple:
        key: list = []
        for name in self.group_by:
            if name == "server":
                key.append(server_id)
            elif name == "day":
                key.append(day)
        return tuple(key)

    def state(self, server_id: str, day: int | None = None) -> GroupState:
        key = self.group_key(server_id, day)
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = GroupState()
        return state

    # -------------------------------------------------------------- #

    def fold_chunk_stats(
        self,
        server_id: str,
        day: int,
        count: int,
        total: float,
        minimum: float,
        maximum: float,
        sum_sq: float,
    ) -> None:
        """Fold one chunk's stored statistics (the decode-free path)."""
        if count == 0:
            return
        state = self.state(server_id, day)
        if self.values_needed:
            state.fold_stats(count, total, minimum, maximum, sum_sq)
        else:
            state.fold_count(count)

    def fold_columns(
        self, server_id: str, timestamps: np.ndarray, values: np.ndarray | None
    ) -> None:
        """Fold decoded column arrays, splitting at day boundaries when
        the grouping requires it.

        ``values`` may be ``None`` only for count-only aggregates.
        ``timestamps`` must already be cut to the query's time range
        (they are sorted, so the day split is a boundary walk).
        """
        n = int(timestamps.shape[0])
        if n == 0:
            return
        if not self.by_day:
            state = self.state(server_id)
            if self.values_needed:
                assert values is not None
                state.fold_array(values)
            else:
                state.fold_count(n)
            return
        days = timestamps // MINUTES_PER_DAY
        cuts = np.flatnonzero(np.diff(days)) + 1
        prev = 0
        for cut in [*cuts.tolist(), n]:
            state = self.state(server_id, int(days[prev]))
            if self.values_needed:
                assert values is not None
                state.fold_array(values[prev:cut])
            else:
                state.fold_count(cut - prev)
            prev = cut

    def merge(self, other: "AggregateAccumulator") -> None:
        """Fold a partial accumulator (e.g. one extract's) into this one."""
        for key, state in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                mine = self._groups[key] = GroupState()
            mine.merge(state)

    # -------------------------------------------------------------- #

    def results(self) -> dict[tuple, dict[str, float | int]]:
        """Finalised reductions per group key, sorted by key.

        Every group present received at least one sample, so no entry can
        hold NaN; an empty scope is an empty mapping.
        """
        return {
            key: self._groups[key].result(self.aggregates)
            for key in sorted(self._groups)
        }


__all__ = [
    "AGGREGATE_GROUP_KEYS",
    "AGGREGATE_REDUCTIONS",
    "AggregateAccumulator",
    "GroupState",
    "check_group_by",
    "check_reductions",
    "values_needed",
]
