"""Helpers for splitting work into balanced partitions."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


def chunk_evenly(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Return ``[start, end)`` index ranges splitting ``n_items`` into at most
    ``n_chunks`` contiguous, nearly equal chunks.

    The first ``n_items % n_chunks`` chunks get one extra item, matching the
    behaviour of ``numpy.array_split``.
    """
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    n_chunks = min(n_chunks, n_items) if n_items else 0
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(n_chunks):
        size = n_items // n_chunks + (1 if index < n_items % n_chunks else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def partition_list(items: Sequence[T], n_partitions: int) -> list[list[T]]:
    """Split a sequence into at most ``n_partitions`` balanced lists."""
    return [list(items[start:end]) for start, end in chunk_evenly(len(items), n_partitions)]
