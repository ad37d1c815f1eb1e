"""Aggregation over extract chunks: the mergeable moment algebra.

Fleet-wide rollups (the Figure 12a/13-style runtime and load summaries)
need a handful of reductions, not rows.  Every ``.sgx`` chunk-table row
carries its chunk's sample count, zone map and value pre-aggregates
(sum / min / max / sum-of-squares), so a chunk lying fully inside a
query's time range and server/engine scope is answered from its table
row without its payload ever being read; only the chunks a range edge or
a day boundary cuts are decoded (see
:func:`~repro.storage.columnar.aggregate_sgx_bytes`).

This module owns the algebra that makes mixing those sources exact:

* :class:`GroupState` accumulates one group's running moments.  Mean and
  variance are kept as ``(count, mean, M2)`` and merged with the pairwise
  (Chan et al.) update -- the parallel generalisation of Welford's
  algorithm -- so reduced chunk statistics, decoded arrays and partial
  accumulators all agree to floating-point accuracy, independent of fold
  order.
* :class:`AggregateAccumulator` maps group keys (``server`` and/or
  absolute ``day``) to states and folds three sources into them: a
  segment's answerable chunk-table rows, reduced per group key in one
  array pass (:meth:`~AggregateAccumulator.fold_chunk_table`); decoded
  column arrays, split at day boundaries when the grouping asks for it
  (:meth:`~AggregateAccumulator.fold_columns`); and whole partial
  accumulators (:meth:`~AggregateAccumulator.merge`).

Results are NaN-free by construction: a group only exists once at least
one sample folded into it, so ``min``/``max``/``mean`` are always
defined, and an empty scope yields an empty mapping rather than rows of
NaN.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from repro.timeseries.calendar import MINUTES_PER_DAY

#: Reductions a query may request, in canonical (output) order.
#: ``count`` needs no value data at all -- a count-only aggregate is
#: answered from the chunk table's ``n_points`` and zone maps, and a
#: decoded chunk contributes its timestamps only; the rest need the
#: chunk table's value statistics (or a decoded values buffer).
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

    ``count`` alone is answered from the chunk table (``n_points`` plus
    the zone map); a chunk it has to decode is read for its timestamps
    only.
    """
    return any(name != "count" for name in aggregates)


class GroupState:
    """Running aggregate moments of one group.

    ``total``/``minimum``/``maximum`` fold directly; the second moment is
    kept as ``(count, mean, m2)`` and combined with the pairwise update
    so merge order cannot change the answer beyond float rounding.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "mean", "m2")

    def __init__(
        self,
        count: int = 0,
        total: float = 0.0,
        minimum: float = math.inf,
        maximum: float = -math.inf,
        mean: float = 0.0,
        m2: float = 0.0,
    ) -> None:
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum
        self.mean = mean
        self.m2 = m2

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
        #: Whether folds need value data (False: count-only, answered from
        #: sample counts and timestamps alone).
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

    def _group(self, key: tuple) -> GroupState:
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = GroupState()
        return state

    def state(self, server_id: str, day: int | None = None) -> GroupState:
        return self._group(self.group_key(server_id, day))

    # -------------------------------------------------------------- #

    def fold_chunk_table(
        self,
        table: np.ndarray,
        table_server: np.ndarray,
        server_id: Callable[[int], str],
    ) -> None:
        """Fold chunk-table rows answered from their stored statistics.

        ``table`` is a record array with the chunk table's ``n_points``,
        ``min_ts``, ``vs_sum``, ``vs_min``, ``vs_max`` and ``vs_sum_sq``
        fields; each row must lie within one group -- one server and,
        when grouping by day, the day of its ``min_ts``.
        ``table_server[i]`` is row ``i``'s server index and
        ``server_id(index)`` that server's id.

        The rows are reduced per group key in one array pass into one
        partial :class:`GroupState` per group, which joins the
        accumulator through :meth:`GroupState.merge`.  ``count`` is an
        exact integer sum; ``M2`` comes from the per-row ``(n, mean, m2)``
        triples -- ``m2_i = sum_sq_i - sum_i * mean_i``, clamped at 0 so a
        constant chunk's cancellation residue cannot go negative -- as
        ``sum(m2_i) + sum(n_i * (mean_i - mean_g) ** 2)``, never as
        ``sum(sum_sq) - sum(sum) ** 2 / N``, whose cancellation loses a
        near-constant group's variance.  Empty rows create no group.
        """
        counts = table["n_points"].astype(np.int64)
        nonempty = counts > 0
        if not nonempty.all():
            table = table.compress(nonempty)
            table_server, counts = table_server[nonempty], counts[nonempty]
        if not counts.shape[0]:
            return
        columns = []
        if "server" in self.group_by:
            columns.append(table_server)
        if self.by_day:
            columns.append(table["min_ts"] // MINUTES_PER_DAY)
        n_rows = counts.shape[0]
        starts = np.zeros(n_rows, dtype=bool)
        starts[0] = True
        if columns:
            # Order rows by key (lexsort: the last column is the primary
            # key) and mark where each run of equal keys starts.
            order = np.lexsort(columns[::-1])
            ordered = np.stack(columns, axis=1)[order]
            starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
            keys = ordered[starts].tolist()
        else:
            order, keys = np.arange(n_rows), [[]]
        first = np.flatnonzero(starts)
        counts = counts[order]
        group_count = np.add.reduceat(counts, first)
        fields = [group_count]
        if self.values_needed:
            group = np.cumsum(starts) - 1
            n_groups = first.shape[0]
            sums = table["vs_sum"][order]
            total = np.bincount(group, weights=sums, minlength=n_groups)
            minimum = np.minimum.reduceat(table["vs_min"][order], first)
            maximum = np.maximum.reduceat(table["vs_max"][order], first)
            row_mean = sums / counts
            row_m2 = np.maximum(table["vs_sum_sq"][order] - sums * row_mean, 0.0)
            mean = total / group_count
            spread = row_mean - mean[group]
            m2 = np.bincount(group, weights=row_m2 + counts * spread * spread, minlength=n_groups)
            fields += [total, minimum, maximum, mean, m2]
        for key, partial in zip(keys, zip(*(field.tolist() for field in fields)), strict=True):
            self._group(
                tuple(
                    server_id(value) if name == "server" else value
                    for name, value in zip(self.group_by, key, strict=True)
                )
            ).merge(GroupState(*partial))

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
            self._group(key).merge(state)

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
