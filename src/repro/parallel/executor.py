"""Serial, threaded and multi-process partitioned execution.

The executor mirrors how the paper uses Dask: the input is partitioned per
server, a pure function is mapped over partitions, and the results are
concatenated.  The serial backend is the baseline the paper compares
against in Figure 12(b); the process backend is the Dask-equivalent
parallel path.

Worker pools are created lazily on first use and *reused* across ``map``
calls, so an executor shared by many pipeline runs (the fleet orchestrator
does exactly this) pays the pool start-up cost once instead of per call.
Executors are context managers; ``close()`` releases the pool.
"""

from __future__ import annotations

import enum
import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from types import TracebackType
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_worker_count() -> int:
    """Best available worker-count default for this host.

    Prefers the scheduling affinity (the CPUs this process may actually
    use, which can be fewer than the machine has in containers), falls back
    to ``os.cpu_count()``, and finally to 1 when the platform reports
    nothing at all (``os.cpu_count()`` may return ``None``).
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    if affinity > 0:
        return affinity
    return os.cpu_count() or 1


#: Cap on fleet-sharding workers: per-unit tasks ship only a config and a
#: lake root, so beyond this many workers pool start-up and task-dispatch
#: overhead outweigh the extra parallelism for realistic unit counts.
MAX_FLEET_WORKERS = 8


def recommended_fleet_workers(n_units: int) -> int:
    """Worker count for sharding ``n_units`` fleet work units.

    The heuristic the fleet orchestrator, CLI and benchmarks share (the
    ROADMAP open item asked for it to be explicit and tested): never more
    workers than units (surplus workers only add pool start-up cost),
    never more than the usable CPUs (:func:`default_worker_count`, which
    respects container affinity), and
    never more than :data:`MAX_FLEET_WORKERS`.  A result of 1 means
    parallel sharding cannot win on this host/workload; a larger result
    is a sizing bound, not a promise of a speed-up -- whether a pool
    beats the serial loop is measured by ``python -m bench compare``,
    never asserted from this number.
    """
    if n_units < 1:
        return 1
    return max(1, min(n_units, default_worker_count(), MAX_FLEET_WORKERS))


class ExecutionBackend(enum.Enum):
    """How partitions are executed."""

    SERIAL = "serial"
    THREADS = "threads"
    PROCESSES = "processes"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ExecutionReport:
    """Timing summary of one :meth:`PartitionedExecutor.map` call."""

    backend: ExecutionBackend
    n_partitions: int
    n_workers: int
    elapsed_seconds: float


class PartitionedExecutor:
    """Maps a function over partitions using the configured backend.

    Parameters
    ----------
    backend:
        ``SERIAL`` runs partitions in a plain loop, ``THREADS`` uses a
        thread pool (adequate for numpy-heavy work that releases the GIL),
        ``PROCESSES`` uses a process pool (the closest analogue of Dask's
        multi-worker scheduler; the mapped function and its arguments must
        be picklable).
    n_workers:
        Worker count for the parallel backends; defaults to the CPU count
        (affinity-aware, and 1 when the platform reports no CPU count).

    The parallel backends keep one worker pool alive across ``map`` calls.
    Use the executor as a context manager, or call :meth:`close`, to shut
    the pool down deterministically; an unclosed pool is reclaimed at
    interpreter exit.
    """

    def __init__(
        self,
        backend: ExecutionBackend | str = ExecutionBackend.SERIAL,
        n_workers: int | None = None,
    ) -> None:
        if isinstance(backend, str):
            backend = ExecutionBackend(backend)
        self._backend = backend
        self._n_workers = max(1, n_workers if n_workers is not None else default_worker_count())
        self._last_report: ExecutionReport | None = None
        self._pool: Executor | None = None
        self._closed = False

    @property
    def backend(self) -> ExecutionBackend:
        return self._backend

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def last_report(self) -> ExecutionReport | None:
        """Timing report of the most recent :meth:`map` call."""
        return self._last_report

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> Executor:
        """Create the backend pool on first use; reuse it afterwards."""
        if self._pool is None:
            if self._backend is ExecutionBackend.THREADS:
                self._pool = ThreadPoolExecutor(max_workers=self._n_workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self._n_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "PartitionedExecutor":
        if self._closed:
            raise RuntimeError("executor is closed")
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def map(self, fn: Callable[[T], R], partitions: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every partition and return results in order."""
        if self._closed:
            raise RuntimeError("cannot map on a closed executor")
        start = time.perf_counter()
        if not partitions:
            results: list[R] = []
        else:
            run_serially = self._backend is ExecutionBackend.SERIAL or len(partitions) == 1
            results = (
                [fn(partition) for partition in partitions]
                if run_serially
                else list(self._ensure_pool().map(fn, partitions))
            )
        elapsed = time.perf_counter() - start
        self._last_report = ExecutionReport(
            backend=self._backend,
            n_partitions=len(partitions),
            n_workers=self._n_workers if self._backend is not ExecutionBackend.SERIAL else 1,
            elapsed_seconds=elapsed,
        )
        return results

    @classmethod
    def serial(cls) -> "PartitionedExecutor":
        """Convenience constructor for the single-threaded baseline."""
        return cls(ExecutionBackend.SERIAL)
