"""Simulated disk drives and the disk array.

A :class:`Disk` stores track payloads (bytes) indexed by an integer track
position, and carries an operational/failed state.  Reading a failed disk
raises :class:`~repro.errors.DiskFailedError` — schedulers must check
:attr:`Disk.is_failed` and route around failures via parity reconstruction;
an exception here means a scheduler bug.

:class:`DiskArray` is the collection of drives of one server plus
convenience queries (failed set, spare accounting, total capacity).

Two I/O modes exist:

* **payload mode** (``store_payloads=True``, the default): every write
  stores real bytes and every read returns them, so XOR parity can be
  verified byte-for-byte;
* **metadata-only mode** (``store_payloads=False``): the drive tracks
  *occupancy* and read/write counters but stores no payload bytes — reads
  return the zero-length :data:`~repro.parity.xor.META_PAYLOAD` token.
  Occupancy, failure semantics, and counters are identical to payload
  mode, so cycle metrics match bit for bit while writes and reads are O(1)
  regardless of track size.  Actual payloads stay lazily derivable from
  the layout's deterministic seed function
  (:meth:`~repro.layout.base.DataLayout.resolve_payload`).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional

from repro.disk.specs import DiskSpec
from repro.errors import (
    DiskFailedError,
    FaultStateError,
    LayoutError,
    MediaReadError,
)
from repro.parity.xor import META_PAYLOAD


class DiskState(enum.Enum):
    """Fault-domain state of one drive.

    The legal transitions form the per-disk state machine::

        OPERATIONAL --degrade()--> DEGRADED --restore()--> OPERATIONAL
        OPERATIONAL/DEGRADED --fail()--> FAILED
        FAILED --begin_rebuild()--> REBUILDING
        FAILED/REBUILDING/DEGRADED --repair()--> OPERATIONAL

    ``DEGRADED`` models a fail-slow drive: still serving, but at a reduced
    :attr:`Disk.service_fraction` of its nominal per-cycle track budget.
    ``REBUILDING`` is a failed drive whose spare is being reconstructed
    on-line; reads still fail (``is_failed`` stays True) until the rebuild
    finishes and :meth:`Disk.repair` completes the cycle.
    """

    OPERATIONAL = "operational"
    DEGRADED = "degraded"
    FAILED = "failed"
    REBUILDING = "rebuilding"


#: Sentinel stored per occupied position in metadata-only mode.
_META = None


class Disk:
    """One simulated drive: payload store + failure state + counters."""

    __slots__ = ("disk_id", "spec", "state", "is_failed", "store_payloads",
                 "service_fraction", "_tracks", "_media_errors", "reads",
                 "writes", "failures", "state_changes",
                 "media_errors_injected", "media_errors_cleared")

    def __init__(self, disk_id: int, spec: DiskSpec,
                 store_payloads: bool = True) -> None:
        if disk_id < 0:
            raise ValueError(f"disk id must be non-negative, got {disk_id}")
        self.disk_id = disk_id
        self.spec = spec
        self.state = DiskState.OPERATIONAL
        #: Kept in lockstep with ``state``: a plain attribute because the
        #: schedulers consult it once per planned read.
        self.is_failed = False
        #: Fraction of the nominal per-cycle track budget a fail-slow
        #: drive can still serve; 1.0 while fully operational.
        self.service_fraction = 1.0
        self.store_payloads = store_payloads
        #: position -> payload bytes (payload mode) or ``None`` (metadata).
        self._tracks: dict[int, Optional[bytes]] = {}
        #: position -> transient? — latent sector errors awaiting a scrub
        #: (persistent) or the next read attempt (transient).
        self._media_errors: dict[int, bool] = {}
        # Lifetime counters, for reports.
        self.reads = 0
        self.writes = 0
        self.failures = 0
        #: Fault-state transitions; the plan-cache invalidation epoch.
        self.state_changes = 0
        self.media_errors_injected = 0
        self.media_errors_cleared = 0

    def __repr__(self) -> str:
        return f"Disk(id={self.disk_id}, state={self.state.value}, " \
               f"tracks={len(self._tracks)})"

    @property
    def stored_tracks(self) -> int:
        """Number of track payloads currently written."""
        return len(self._tracks)

    def _check_position(self, position: int) -> None:
        if position < 0:
            raise LayoutError(f"track position must be non-negative: {position}")
        if position >= self.spec.tracks_per_disk:
            raise LayoutError(
                f"track position {position} beyond disk capacity "
                f"({self.spec.tracks_per_disk} tracks)"
            )

    def write(self, position: int, payload: bytes) -> None:
        """Store a track payload at ``position`` (loading from tertiary)."""
        self._check_position(position)
        if self.store_payloads:
            # Avoid a redundant copy when the payload is already bytes.
            self._tracks[position] = (payload if type(payload) is bytes
                                      else bytes(payload))
        else:
            self._tracks[position] = _META
        if self._media_errors and \
                self._media_errors.pop(position, None) is not None:
            # Rewriting a sector remaps it: the latent error is gone.
            self.media_errors_cleared += 1
            self.state_changes += 1
        self.writes += 1

    def write_meta(self, position: int) -> None:
        """Mark ``position`` occupied without materialising any payload.

        The metadata-mode loader path: occupancy and the write counter
        advance exactly as :meth:`write` would, but no bytes are generated
        or stored, so materialising a whole catalog is O(1) per track.
        """
        self._check_position(position)
        self._tracks[position] = _META if not self.store_payloads else \
            self._tracks.get(position, _META)
        self.writes += 1

    def write_meta_many(self, positions: list[int]) -> None:
        """:meth:`write_meta` for a batch of positions, in order, behind
        one bounds check (the layout's bulk metadata loader)."""
        if not positions:
            return
        self._check_position(min(positions))
        self._check_position(max(positions))
        tracks = self._tracks
        if self.store_payloads:
            tracks.update((p, tracks.get(p, _META)) for p in positions)
        else:
            tracks.update(dict.fromkeys(positions, _META))
        self.writes += len(positions)

    def read(self, position: int) -> bytes:
        """Return the payload at ``position``.

        In metadata-only mode the returned payload is the zero-length
        token; occupancy and failure checks are identical to payload mode.

        Raises
        ------
        DiskFailedError
            If the drive is failed — callers must reconstruct via parity.
        MediaReadError
            If the position carries a latent/transient media error.  A
            transient glitch clears itself on the failed attempt, so an
            immediate retry succeeds; a latent (persistent) error keeps
            failing until scrubbed, repaired, or rewritten.
        LayoutError
            If nothing was ever written there.
        """
        if self.is_failed:
            raise DiskFailedError(
                f"read from failed disk {self.disk_id} (position {position})"
            )
        if self._media_errors:
            transient = self._media_errors.get(position)
            if transient is not None:
                if transient:
                    del self._media_errors[position]
                    self.media_errors_cleared += 1
                    self.state_changes += 1
                raise MediaReadError(self.disk_id, position, transient)
        try:
            payload = self._tracks[position]
        except KeyError:
            raise LayoutError(
                f"disk {self.disk_id} has no data at track position {position}"
            ) from None
        self.reads += 1
        return META_PAYLOAD if payload is None else payload

    def peek(self, position: int) -> Optional[bytes]:
        """The stored payload without touching counters or failure state.

        Returns ``None`` for an occupied metadata-only position (the bytes
        are derivable from the layout's seed function, not stored here).

        Raises
        ------
        LayoutError
            If the position holds nothing at all.
        """
        try:
            return self._tracks[position]
        except KeyError:
            raise LayoutError(
                f"disk {self.disk_id} has no data at track position {position}"
            ) from None

    def fail(self) -> None:
        """Mark the drive failed.  Contents become unreadable (not erased:
        the replacement-drive rebuild rewrites them explicitly)."""
        if not self.is_failed:
            self.state = DiskState.FAILED
            self.is_failed = True
            self.failures += 1
            self.state_changes += 1

    def repair(self) -> None:
        """Bring a (reloaded/replaced) drive back online.

        A repair models a drive swap or full reload, so it also clears any
        fail-slow throttle and outstanding media errors.
        """
        if self.is_failed or self.state is not DiskState.OPERATIONAL \
                or self.service_fraction != 1.0 or self._media_errors:
            self.state_changes += 1
        self.state = DiskState.OPERATIONAL
        self.is_failed = False
        self.service_fraction = 1.0
        self._media_errors.clear()

    def degrade(self, service_fraction: float) -> None:
        """Enter fail-slow mode at the given fraction of nominal service.

        Raises
        ------
        FaultStateError
            If the drive is failed (a dead drive cannot be merely slow).
        """
        if not 0.0 <= service_fraction <= 1.0:
            raise ValueError(
                f"service fraction must be in [0, 1], got {service_fraction}"
            )
        if self.is_failed:
            raise FaultStateError(
                f"cannot degrade failed disk {self.disk_id}; repair it first"
            )
        self.state = (DiskState.OPERATIONAL if service_fraction >= 1.0
                      else DiskState.DEGRADED)
        self.service_fraction = service_fraction
        self.state_changes += 1

    def restore(self) -> None:
        """Leave fail-slow mode (the drive recovered full speed).

        Raises
        ------
        FaultStateError
            If the drive is failed — a failed drive needs :meth:`repair`.
        """
        if self.is_failed:
            raise FaultStateError(
                f"cannot restore failed disk {self.disk_id}; repair it first"
            )
        if self.state is DiskState.DEGRADED:
            self.state = DiskState.OPERATIONAL
            self.service_fraction = 1.0
            self.state_changes += 1

    def begin_rebuild(self) -> None:
        """Transition FAILED -> REBUILDING (spare reconstruction started).

        The drive stays unreadable (``is_failed`` remains True) until the
        rebuild completes and :meth:`repair` runs.
        """
        if self.state is not DiskState.FAILED:
            raise FaultStateError(
                f"disk {self.disk_id} is {self.state.value}, not failed; "
                "nothing to rebuild"
            )
        self.state = DiskState.REBUILDING
        self.state_changes += 1

    def inject_media_error(self, position: int,
                           transient: bool = False) -> None:
        """Plant a media error at one track position.

        ``transient=True`` models a recoverable glitch (vibration, a
        retryable ECC miss): the first read attempt fails and clears it.
        ``transient=False`` is a latent sector error: reads keep failing
        until the position is scrubbed, rewritten, or the drive repaired.
        """
        self._check_position(position)
        self._media_errors[position] = transient
        self.media_errors_injected += 1
        self.state_changes += 1

    def scrub(self, position: int) -> bool:
        """Background-scrub one position; True if an error was repaired."""
        if self._media_errors.pop(position, None) is None:
            return False
        self.media_errors_cleared += 1
        self.state_changes += 1
        return True

    def media_error_positions(self) -> list[int]:
        """Positions currently carrying a media error, ascending."""
        return sorted(self._media_errors)

    @property
    def has_media_errors(self) -> bool:
        """True while any position carries a media error."""
        return bool(self._media_errors)

    def effective_slots(self, base_slots: int) -> int:
        """Per-cycle read slots after the fail-slow throttle.

        A degraded drive still serves at least one track per cycle —
        a fully stalled drive should be failed, not degraded.
        """
        if self.service_fraction >= 1.0:
            return base_slots
        return max(1, int(base_slots * self.service_fraction))

    def erase(self) -> None:
        """Drop all contents (simulates swapping in a blank spare)."""
        self._tracks.clear()

    def discard(self, position: int) -> None:
        """Drop one track's payload (purging an object from disk)."""
        self._tracks.pop(position, None)

    def positions(self) -> Iterator[int]:
        """Iterate stored track positions (unspecified order)."""
        return iter(self._tracks)


class DiskArray:
    """All the drives of one multimedia server."""

    __slots__ = ("spec", "store_payloads", "disks")

    def __init__(self, count: int, spec: DiskSpec,
                 store_payloads: bool = True) -> None:
        if count <= 0:
            raise ValueError(f"disk count must be positive, got {count}")
        self.spec = spec
        self.store_payloads = store_payloads
        self.disks = [Disk(disk_id, spec, store_payloads=store_payloads)
                      for disk_id in range(count)]

    def __len__(self) -> int:
        return len(self.disks)

    def __getitem__(self, disk_id: int) -> Disk:
        if not 0 <= disk_id < len(self.disks):
            raise LayoutError(f"no such disk: {disk_id}")
        return self.disks[disk_id]

    def __iter__(self) -> Iterator[Disk]:
        return iter(self.disks)

    @property
    def failed_ids(self) -> list[int]:
        """Ids of currently failed drives, ascending."""
        return [d.disk_id for d in self.disks if d.is_failed]

    @property
    def degraded_ids(self) -> list[int]:
        """Ids of drives currently in fail-slow mode, ascending."""
        return [d.disk_id for d in self.disks
                if d.state is DiskState.DEGRADED]

    @property
    def media_error_count(self) -> int:
        """Outstanding media errors across all drives."""
        return sum(len(d._media_errors) for d in self.disks)

    @property
    def operational_count(self) -> int:
        """Number of drives currently up."""
        return sum(1 for d in self.disks if not d.is_failed)

    @property
    def state_epoch(self) -> int:
        """Total failure/repair transitions across all drives.

        Monotonic; any change means some disk's operational state flipped
        since the epoch was last sampled.  Schedulers key their cycle-plan
        caches on this (plus the layout's placement epoch).
        """
        return sum(d.state_changes for d in self.disks)

    def fail(self, disk_id: int) -> Disk:
        """Fail one drive and return it."""
        disk = self[disk_id]
        disk.fail()
        return disk

    def repair(self, disk_id: int) -> Disk:
        """Repair one drive and return it."""
        disk = self[disk_id]
        disk.repair()
        return disk

    def degrade(self, disk_id: int, service_fraction: float) -> Disk:
        """Put one drive into fail-slow mode and return it."""
        disk = self[disk_id]
        disk.degrade(service_fraction)
        return disk

    def restore(self, disk_id: int) -> Disk:
        """Return one fail-slow drive to full speed and return it."""
        disk = self[disk_id]
        disk.restore()
        return disk

    def fail_many(self, disk_ids: Iterable[int]) -> None:
        """Fail several drives at once."""
        for disk_id in disk_ids:
            self.fail(disk_id)

    def total_capacity_mb(self) -> float:
        """Aggregate raw capacity of the array in MB."""
        return len(self.disks) * self.spec.capacity_mb

    def first_failed(self) -> Optional[Disk]:
        """The lowest-id failed drive, or None."""
        for disk in self.disks:
            if disk.is_failed:
                return disk
        return None
