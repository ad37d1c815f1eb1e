"""The benchmark's workload drivers, one module per flow.

Drivers use only names exported from ``repro``, ``repro.storage``,
``repro.storage.live``, ``repro.serving``, ``repro.scheduling`` and
``repro.fleet_ops``; lakes are disk-backed ``.sgx`` under the run's
temporary directory.  No in-memory lake, CSV read path, ``fmt=``,
``include_tail=`` or pre-v4 file is touched, so those can be deleted
without editing a driver.
"""

from __future__ import annotations

from typing import Any

#: Workload names in the order ``BENCHMARK.json`` declares them.
WORKLOADS = ("fleet-pf", "fleet-ssa", "lake-query", "live-loop", "serve-mix")


def make_workload(name: str, smoke: bool) -> Any:
    """Build the driver for ``name`` (imports ``repro`` on first use)."""
    from bench.workloads import fleet, lake_query, live_loop, serve_mix

    factories = {
        "fleet-pf": fleet.fleet_pf,
        "fleet-ssa": fleet.fleet_ssa,
        "lake-query": lake_query.lake_query,
        "live-loop": live_loop.live_loop,
        "serve-mix": serve_mix.serve_mix,
    }
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return factories[name](smoke)
