"""CSV serialisation of load frames.

The input files to the AML pipeline are CSV extracts containing
``server identifier, timestamp in minutes, average user CPU load percentage
per five minutes, default backup start and end timestamps`` (Section 5.3.1).
This module reads and writes that schema, with a few extra metadata columns
used by the synthetic substrate (region, engine, true class).  It is the
data lake's import/export edge: a lake stores ``.sgx`` segments only.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.timeseries.calendar import DEFAULT_INTERVAL_MINUTES
from repro.timeseries.frame import LoadFrame


class CsvSchemaError(ValueError):
    """Raised when a CSV extract does not carry the expected columns."""


REQUIRED_COLUMNS = ("server_id", "timestamp_minutes", "avg_cpu_percent")


def write_frame_csv(frame: LoadFrame, path: str | Path) -> int:
    """Write ``frame`` to ``path`` in the extract schema.

    Returns the number of data rows written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LoadFrame.CSV_HEADER)
        for row in frame.to_rows():
            writer.writerow(row)
            count += 1
    return count


def frame_to_csv_text(frame: LoadFrame) -> str:
    """Serialise ``frame`` to a CSV string (what the lake exports)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(LoadFrame.CSV_HEADER)
    for row in frame.to_rows():
        writer.writerow(row)
    return buffer.getvalue()


def frame_from_csv_text(
    text: str,
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
) -> LoadFrame:
    """Parse a CSV string into a :class:`LoadFrame`."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise CsvSchemaError("CSV extract is empty (no header row)")
    missing = [column for column in REQUIRED_COLUMNS if column not in reader.fieldnames]
    if missing:
        raise CsvSchemaError(f"CSV extract is missing required columns: {missing}")
    return LoadFrame.from_rows(reader, interval_minutes)
