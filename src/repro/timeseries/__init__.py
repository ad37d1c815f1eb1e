"""Time series substrate used by every other Seagull component.

The paper's pipeline consumes per-server telemetry rows of the form
``(server_id, timestamp, avg user CPU %)`` sampled every five minutes
(PostgreSQL/MySQL) or every fifteen minutes (SQL databases, Appendix A).
This package provides the containers and calendar arithmetic that the
validation, feature-extraction, modelling and metric modules operate on:

* :class:`~repro.timeseries.series.LoadSeries` -- a single server's load
  trace (regular grid of epoch-minute timestamps plus float loads).
* :class:`~repro.timeseries.frame.LoadFrame` -- a fleet of traces keyed by
  server id, with per-server metadata such as the default backup window.
* :mod:`~repro.timeseries.calendar` -- day/week arithmetic (backup days,
  previous equivalent day, window enumeration).
* :mod:`~repro.timeseries.resample` -- aggregation of raw telemetry onto
  the regular five-minute grid.
"""

from repro.timeseries.calendar import (
    MINUTES_PER_DAY,
    MINUTES_PER_WEEK,
    day_index,
    day_start,
    minute_of_day,
    week_index,
    week_start,
)
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.resample import regularize
from repro.timeseries.series import LoadSeries

__all__ = [
    "LoadSeries",
    "LoadFrame",
    "ServerMetadata",
    "MINUTES_PER_DAY",
    "MINUTES_PER_WEEK",
    "day_index",
    "day_start",
    "minute_of_day",
    "week_index",
    "week_start",
    "regularize",
]
