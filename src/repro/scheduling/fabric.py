"""Service-fabric property store.

The backup scheduling algorithm "stores the start time of this window as a
service fabric property of respective PostgreSQL and MySQL database
instances.  This property is used by the backup service to schedule
backups" (Section 2.3).  This module reproduces that tiny but load-bearing
interface: a per-server property bag with versioned writes.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Property name used for the scheduled backup window start.
BACKUP_WINDOW_PROPERTY = "scheduled_backup_start"


@dataclass(frozen=True)
class PropertyRecord:
    """One property value with its write version."""

    name: str
    value: object
    version: int


class FabricPropertyStore:
    """Per-server named properties with last-writer-wins versioning."""

    def __init__(self) -> None:
        self._properties: dict[str, dict[str, PropertyRecord]] = {}

    def set_property(self, server_id: str, name: str, value: object) -> PropertyRecord:
        """Set a property on a server, bumping its version."""
        server_props = self._properties.setdefault(server_id, {})
        previous = server_props.get(name)
        record = PropertyRecord(
            name=name,
            value=value,
            version=1 if previous is None else previous.version + 1,
        )
        server_props[name] = record
        return record

    def get_property(self, server_id: str, name: str) -> object:
        """Read a property value; ``None`` when unset."""
        record = self._properties.get(server_id, {}).get(name)
        return None if record is None else record.value

    def set_backup_window_start(self, server_id: str, start_minute: int) -> PropertyRecord:
        """Convenience wrapper for the property the backup service reads."""
        return self.set_property(server_id, BACKUP_WINDOW_PROPERTY, int(start_minute))
