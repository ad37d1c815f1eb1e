"""Schema and data-property inference (Section 2.4).

To adapt the validation module to a new scenario without code changes, the
schema and simple data properties (min/max of numeric attributes, expected
sampling interval, expected coverage) are deduced from a reference extract
and then enforced on later extracts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.timeseries.frame import LoadFrame


@dataclass(frozen=True)
class DataProperties:
    """Inferred schema and value-bound properties of an extract.

    Attributes
    ----------
    columns:
        The expected CSV columns.
    load_min / load_max:
        Observed bounds of the load attribute; the bound-anomaly rule flags
        extracts whose values fall outside ``[load_min - slack, load_max + slack]``.
    interval_minutes:
        Expected sampling interval.
    min_servers:
        Minimum plausible number of servers per extract, used to detect
        missing or truncated input data.
    """

    columns: tuple[str, ...]
    load_min: float
    load_max: float
    interval_minutes: int
    min_servers: int = 1


def infer_properties(frame: LoadFrame) -> DataProperties:
    """Deduce :class:`DataProperties` from a reference extract.

    The load bounds are the observed min/max across all servers; the
    expected column set is the standard extract schema, and at least half
    the reference extract's servers must be present.
    """
    load_min = float("inf")
    load_max = float("-inf")
    for _, _, series in frame.items():
        if series.is_empty:
            continue
        load_min = min(load_min, series.minimum())
        load_max = max(load_max, series.maximum())
    if load_min > load_max:
        load_min, load_max = 0.0, 100.0
    return DataProperties(
        columns=LoadFrame.CSV_HEADER,
        load_min=load_min,
        load_max=load_max,
        interval_minutes=frame.interval_minutes,
        min_servers=max(1, len(frame) // 2),
    )
