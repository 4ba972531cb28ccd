"""Planned disk reads: the unit the slot table arbitrates."""

from __future__ import annotations

import enum


class ReadKind(enum.Enum):
    """What the read fetches."""

    DATA = "data"
    PARITY = "parity"


class ReadPurpose(enum.Enum):
    """Why the read is scheduled; determines its drop priority."""

    #: Regular schedule-driven fetch.
    NORMAL = "normal"
    #: Parity or moved-forward fetch needed to mask a failure.  Recovery
    #: reads win slot contention: "disks ... drop some of the local
    #: requests in favor of reading the parity blocks" (Section 4).
    RECOVERY = "recovery"
    #: A nice-to-have fetch that yields to everything else.  Section 4's
    #: "sophisticated scheduler": "Under lightly loaded conditions, the
    #: parity blocks can be read during normal operation and the isolated
    #: hiccup avoided.  As the load increases, reading parity blocks can
    #: be dropped in favor of supporting more streams."
    OPPORTUNISTIC = "opportunistic"


#: Slot-contention rank per purpose; lower wins.  OPPORTUNISTIC yields to
#: all scheduled work.
PRIORITY = {ReadPurpose.RECOVERY: 0, ReadPurpose.NORMAL: 1,
            ReadPurpose.OPPORTUNISTIC: 2}


class PlannedRead:
    """One track-sized read planned for the coming cycle.

    ``index`` is the object-relative track number for DATA reads and the
    parity-group number for PARITY reads.

    A hand-written ``__slots__`` class rather than a dataclass: schedulers
    construct tens of these per cycle on the hot path, and a plain
    ``__init__`` with direct attribute stores is several times cheaper
    than a frozen dataclass's generated one.
    """

    __slots__ = ("disk_id", "position", "stream_id", "object_name",
                 "kind", "index", "purpose")

    def __init__(self, disk_id: int, position: int, stream_id: int,
                 object_name: str, kind: ReadKind, index: int,
                 purpose: ReadPurpose = ReadPurpose.NORMAL) -> None:
        self.disk_id = disk_id
        self.position = position
        self.stream_id = stream_id
        self.object_name = object_name
        self.kind = kind
        self.index = index
        self.purpose = purpose

    def __repr__(self) -> str:
        return (f"PlannedRead(disk_id={self.disk_id}, "
                f"position={self.position}, stream_id={self.stream_id}, "
                f"object_name={self.object_name!r}, kind={self.kind}, "
                f"index={self.index}, purpose={self.purpose})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlannedRead):
            return NotImplemented
        return (self.disk_id == other.disk_id
                and self.position == other.position
                and self.stream_id == other.stream_id
                and self.object_name == other.object_name
                and self.kind is other.kind
                and self.index == other.index
                and self.purpose is other.purpose)

    # Identity hashing: arbitration tracks plans by object, not by value.
    __hash__ = object.__hash__

    @property
    def priority(self) -> int:
        """Slot-contention rank; lower wins."""
        return PRIORITY[self.purpose]
