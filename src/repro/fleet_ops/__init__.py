"""Fleet-scale orchestration of the Seagull pipeline.

The paper's system runs its forecasting pipeline per region across the
entire cloud fleet (Section 2.1).  This package provides that layer for
the reproduction:

* :class:`~repro.fleet_ops.orchestrator.FleetOrchestrator` -- shards
  ``(region, week)`` work units across a shared
  :class:`~repro.parallel.executor.PartitionedExecutor` and consolidates
  the results, with a two-level artifact cache (whole-unit outcomes keyed
  by raw extract fingerprint, pipeline stages keyed by extract content
  hash) so unchanged extracts cost almost nothing to re-run.
* :class:`~repro.fleet_ops.report.FleetReport` -- the fleet-level
  analogue of Figures 12(a) and 13: per-region component runtimes,
  predictability rollup, incident rollup and cache activity.
* :func:`~repro.fleet_ops.synthesis.populate_lake` -- deterministic
  synthetic extracts for every ``(region, week)`` of a fleet spec.
* ``python -m repro.fleet_ops`` -- CLI running the whole flow.
"""

from repro.fleet_ops.orchestrator import FleetOrchestrator
from repro.fleet_ops.report import FleetReport, FleetUnitOutcome
from repro.fleet_ops.synthesis import populate_lake

__all__ = [
    "FleetOrchestrator",
    "FleetReport",
    "FleetUnitOutcome",
    "populate_lake",
]
