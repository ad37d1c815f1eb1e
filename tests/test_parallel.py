"""Unit tests for the partitioned executor and partition helpers."""

import pytest

from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    ExecutionBackend,
    PartitionedExecutor,
    default_worker_count,
)
from repro.parallel.partition import chunk_evenly, partition_list


def square_sum(chunk):
    return sum(x * x for x in chunk)


class TestChunkEvenly:
    def test_even_split(self):
        assert chunk_evenly(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_uneven_split_front_loads(self):
        assert chunk_evenly(5, 3) == [(0, 2), (2, 4), (4, 5)]

    def test_more_chunks_than_items(self):
        assert chunk_evenly(2, 5) == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_evenly(0, 3) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_evenly(3, 0)
        with pytest.raises(ValueError):
            chunk_evenly(-1, 2)


class TestPartitionHelpers:
    def test_partition_list(self):
        assert partition_list([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]

    def test_partition_list_preserves_all_items(self):
        items = list(range(17))
        parts = partition_list(items, 4)
        assert sorted(x for part in parts for x in part) == items


class TestExecutorBackends:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_map_results_in_order(self, backend):
        executor = PartitionedExecutor(backend, n_workers=2)
        partitions = [[1, 2], [3], [4, 5, 6]]
        assert executor.map(square_sum, partitions) == [5, 9, 77]

    def test_string_backend_resolution(self):
        assert PartitionedExecutor("processes").backend is ExecutionBackend.PROCESSES

    def test_empty_partitions(self):
        assert PartitionedExecutor().map(square_sum, []) == []

    def test_last_report_populated(self):
        executor = PartitionedExecutor()
        executor.map(square_sum, [[1], [2]])
        report = executor.last_report
        assert report is not None
        assert report.n_partitions == 2
        assert report.backend is ExecutionBackend.SERIAL
        assert report.elapsed_seconds >= 0

    def test_constructors(self):
        assert PartitionedExecutor.serial().backend is ExecutionBackend.SERIAL

    def test_n_workers_defaults_to_positive(self):
        assert PartitionedExecutor().n_workers >= 1


class TestWorkerCountDefault:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    @staticmethod
    def cores(monkeypatch, n):
        monkeypatch.setattr(executor_module, "default_worker_count", lambda: n)

    def test_recommended_fleet_workers_never_exceeds_units(self, monkeypatch):
        self.cores(monkeypatch, 16)
        assert executor_module.recommended_fleet_workers(3) == 3
        assert executor_module.recommended_fleet_workers(1) == 1

    def test_recommended_fleet_workers_never_exceeds_cores(self, monkeypatch):
        self.cores(monkeypatch, 4)
        assert executor_module.recommended_fleet_workers(100) == 4
        self.cores(monkeypatch, 1)
        assert executor_module.recommended_fleet_workers(100) == 1

    def test_recommended_fleet_workers_capped(self, monkeypatch):
        self.cores(monkeypatch, 64)
        limit = executor_module.MAX_FLEET_WORKERS
        assert executor_module.recommended_fleet_workers(1000) == limit

    def test_recommended_fleet_workers_degenerate_inputs(self, monkeypatch):
        assert executor_module.recommended_fleet_workers(4) >= 1  # host default path
        self.cores(monkeypatch, 8)
        assert executor_module.recommended_fleet_workers(0) == 1
        assert executor_module.recommended_fleet_workers(-5) == 1

    def test_safe_when_cpu_count_is_none(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        monkeypatch.delattr(executor_module.os, "sched_getaffinity", raising=False)
        assert default_worker_count() == 1
        assert PartitionedExecutor("threads").n_workers == 1

    def test_prefers_affinity_when_available(self, monkeypatch):
        monkeypatch.setattr(
            executor_module.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert default_worker_count() == 3


class TestExecutorLifecycle:
    def test_thread_pool_reused_across_map_calls(self):
        executor = PartitionedExecutor("threads", n_workers=2)
        executor.map(square_sum, [[1], [2]])
        first_pool = executor._pool
        executor.map(square_sum, [[3], [4]])
        assert executor._pool is first_pool
        executor.close()

    def test_serial_backend_never_creates_pool(self):
        executor = PartitionedExecutor()
        executor.map(square_sum, [[1], [2]])
        assert executor._pool is None

    def test_context_manager_closes_pool(self):
        with PartitionedExecutor("threads", n_workers=2) as executor:
            assert executor.map(square_sum, [[1, 2], [3]]) == [5, 9]
            assert not executor._closed
        assert executor._closed
        assert executor._pool is None

    def test_map_after_close_raises(self):
        executor = PartitionedExecutor("threads", n_workers=2)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.map(square_sum, [[1]])

    def test_reenter_after_close_raises(self):
        executor = PartitionedExecutor()
        executor.close()
        with pytest.raises(RuntimeError), executor:
            pass  # pragma: no cover - never reached

    def test_close_is_idempotent(self):
        executor = PartitionedExecutor("threads", n_workers=2)
        executor.map(square_sum, [[1], [2]])
        executor.close()
        executor.close()
        assert executor._closed

    def test_process_pool_reused_across_map_calls(self):
        with PartitionedExecutor("processes", n_workers=1) as executor:
            assert executor.map(square_sum, [[1, 2], [3]]) == [5, 9]
            first_pool = executor._pool
            assert executor.map(square_sum, [[2, 2], [4]]) == [8, 16]
            assert executor._pool is first_pool
