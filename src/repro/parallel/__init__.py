"""Partitioned parallel execution (the reproduction's Dask substitute).

The paper partitions input data per server and processes servers in
parallel with Dask to keep per-region pipeline runs within an acceptable
computational delay (Sections 2.1, 5.3.1 and 6.1).  This package provides
the same capability with the standard library: a
:class:`~repro.parallel.executor.PartitionedExecutor` that maps a function
over partitions either serially, with a thread pool or with a process pool.
"""

from repro.parallel.executor import ExecutionBackend, PartitionedExecutor
from repro.parallel.partition import chunk_evenly, partition_list

__all__ = [
    "ExecutionBackend",
    "PartitionedExecutor",
    "chunk_evenly",
    "partition_list",
]
