"""The abstract data-layout interface.

A layout answers, for every object in a catalog:

* where each data track lives (``data_address``);
* which parity group a track belongs to (``group_of``);
* the full physical footprint of a group (``group_span``);
* what a given disk holds (``blocks_on_disk``) — needed to work out which
  streams a disk failure touches;
* whether a set of simultaneous failures is *catastrophic*, i.e. some
  parity group has lost two or more members (Section 1).

Layouts also know how to *materialise* themselves onto a
:class:`~repro.disk.drive.DiskArray`: writing deterministic track payloads
and their XOR parity so reconstruction can be verified byte-for-byte.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.disk.drive import DiskArray
from repro.errors import ConfigurationError, LayoutError
from repro.layout.address import BlockKind, DiskAddress, GroupSpan, StoredBlock
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.parity.xor import xor_blocks, xor_matrix
from repro.units import mb_to_bytes

#: How many placement deltas a layout retains.  Once the log outgrows
#: this, the oldest entries are dropped and the *floor* rises — callers
#: asking for history below the floor get ``None`` and must fall back to
#: wholesale invalidation.
DELTA_LOG_LIMIT = 256

#: Parity groups one :meth:`DataLayout.group_geometry` miss memoizes.
GEOMETRY_WINDOW = 16


@dataclass(frozen=True)
class PlacementDelta:
    """One placement change: which epoch it created, and what moved.

    ``kind`` is ``"place"`` (addresses were appended — every previously
    cached lookup stays valid) or ``"remove"`` (the named object's
    addresses were freed — only caches mentioning that object die).
    """

    epoch: int
    kind: str
    name: str


class Placement(NamedTuple):
    """One placed object's addresses (placement is a struct of arrays):
    read-only int64 arrays indexed by data track (``data_*``) and by
    parity group (``parity_*``)."""

    data_disks: np.ndarray
    data_positions: np.ndarray
    parity_disks: np.ndarray
    parity_positions: np.ndarray


class DataLayout(abc.ABC):
    """Common machinery for parity-group layouts.

    Concrete subclasses decide cluster geometry and parity placement by
    implementing the vectorised :meth:`_group_disks`; everything else
    (per-disk slot allocation, lookups, catastrophe detection,
    materialisation) is shared.
    """

    def __init__(self, num_disks: int, parity_group_size: int) -> None:
        if parity_group_size < 2:
            raise ConfigurationError(
                f"parity group size must be >= 2, got {parity_group_size}"
            )
        if num_disks < parity_group_size:
            raise ConfigurationError(
                f"need at least C={parity_group_size} disks, got {num_disks}"
            )
        self.num_disks = num_disks
        self.parity_group_size = parity_group_size
        self._objects: dict[str, MediaObject] = {}
        self._start_cluster: dict[str, int] = {}
        #: Per-object address arrays, in placement order.
        self._placement: dict[str, Placement] = {}
        #: Order of each name's first placement (kept across removal);
        #: the improved-bandwidth layout rotates parity by it.
        self._object_rank: dict[str, int] = {}
        self._next_position = np.zeros(num_disks, dtype=np.int64)
        #: Track slots freed by removed objects, reused (LIFO) before the
        #: high-water mark grows (the tertiary purge/reload cycle of
        #: Section 1 swaps objects in and out of the same disks).  Only
        #: disks with free slots have an entry.
        self._free_positions: dict[int, list[int]] = {}
        #: Placement epoch: bumped whenever addresses change (place/remove).
        #: Schedulers key their cycle-plan caches on this.
        self._epoch = 0
        #: Bounded log of recent placement changes so schedulers can
        #: bridge an epoch gap with per-object evictions instead of
        #: dropping every cached plan (see :meth:`deltas_since`).
        self._delta_log: list[PlacementDelta] = []
        self._delta_floor = 0
        # Memoized hot-path lookups, flushed on every placement change.
        self._span_cache: dict[tuple[str, int], GroupSpan] = {}
        self._tracks_cache: dict[tuple[str, int], list[int]] = {}
        self._cluster_cache: dict[tuple[str, int], int] = {}
        self._geometry_cache: dict[
            tuple[str, int],
            tuple[tuple[tuple[int, int], ...], tuple[int, int]]] = {}
        self._names_cache: Optional[frozenset[str]] = None

    # -- cache management ---------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic counter of placement changes (place/remove calls)."""
        return self._epoch

    def _invalidate_caches(self) -> None:
        self._epoch += 1
        self._span_cache.clear()
        self._tracks_cache.clear()
        self._cluster_cache.clear()
        self._geometry_cache.clear()
        self._names_cache = None
        # Wholesale invalidation abandons delta history: raise the floor
        # so deltas_since() callers below it fall back to a full rebuild.
        self._delta_log.clear()
        self._delta_floor = self._epoch

    def _record_delta(self, kind: str, name: str) -> None:
        """Bump the epoch for one placement change, evicting surgically.

        ``place`` only appends addresses, so every memoized per-object
        lookup survives; ``remove`` kills just the removed object's
        entries.  The object-set cache (:attr:`object_names`) is rebuilt
        lazily either way.
        """
        self._epoch += 1
        self._names_cache = None
        if kind == "remove":
            for cache in (self._span_cache, self._tracks_cache,
                          self._cluster_cache, self._geometry_cache):
                for key in [k for k in cache if k[0] == name]:
                    del cache[key]
        self._delta_log.append(PlacementDelta(self._epoch, kind, name))
        if len(self._delta_log) > DELTA_LOG_LIMIT:
            dropped = len(self._delta_log) - DELTA_LOG_LIMIT
            del self._delta_log[:dropped]
            self._delta_floor = self._delta_log[0].epoch - 1

    def deltas_since(self, epoch: int) -> Optional[tuple[PlacementDelta, ...]]:
        """Placement changes after ``epoch``, oldest first.

        Returns ``None`` when ``epoch`` predates the retained window (the
        log is bounded by :data:`DELTA_LOG_LIMIT`) — callers must then
        invalidate wholesale.  Returns ``()`` when nothing changed.
        """
        if epoch < self._delta_floor:
            return None
        return tuple(d for d in self._delta_log if d.epoch > epoch)

    # -- geometry to be provided by subclasses ---------------------------

    @property
    @abc.abstractmethod
    def num_clusters(self) -> int:
        """Number of clusters the disks are grouped into."""

    @property
    @abc.abstractmethod
    def data_disks_per_group(self) -> int:
        """Data blocks per parity group (``C - 1``)."""

    @abc.abstractmethod
    def cluster_of(self, disk_id: int) -> int:
        """Cluster index of a disk."""

    @abc.abstractmethod
    def cluster_disks(self, cluster: int) -> list[int]:
        """Disk ids of one cluster, ascending."""

    @abc.abstractmethod
    def is_parity_disk(self, disk_id: int) -> bool:
        """True if the disk is *dedicated* to parity (clustered layouts)."""

    @abc.abstractmethod
    def _group_disks(self, groups: np.ndarray, start: int, rank: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Disks of parity groups ``groups`` of an object whose first group
        sits at ``start`` and whose placement rank is ``rank``.

        Returns a ``(len(groups), C - 1)`` matrix of data disks (column
        ``o`` holds offset ``o``) and the vector of parity disks.
        """

    # -- placement --------------------------------------------------------

    @property
    def objects(self) -> list[MediaObject]:
        """Objects placed so far, in placement order."""
        return list(self._objects.values())

    def place(self, obj: MediaObject, start_cluster: Optional[int] = None) -> None:
        """Assign disk addresses to every track and parity block of ``obj``.

        Parity groups are allocated round-robin over clusters starting at
        ``start_cluster`` (Section 2: "if the first parity group for an
        object is located on cluster h, then the j-th parity group for that
        object is located on cluster h + j mod Nc").  Blocks take slots
        group by group, data offsets before parity.
        """
        start = self._start_of(obj, start_cluster)
        rank = self._object_rank.setdefault(obj.name, len(self._object_rank))
        disks, data_at, parity_at = self._block_sequence(obj, start, rank)
        positions = self._allocate(disks)
        self._objects[obj.name] = obj
        self._start_cluster[obj.name] = start
        placed = Placement(disks[data_at], positions[data_at],
                           disks[parity_at], positions[parity_at])
        for values in placed:
            values.flags.writeable = False
        self._placement[obj.name] = placed
        self._record_delta("place", obj.name)

    def place_catalog(self, catalog: Catalog,
                      start_cluster: Optional[int] = None) -> None:
        """Place every object of a catalog.

        ``start_cluster`` forces every object's first parity group onto one
        cluster (useful for reproducing the paper's worked failure
        scenarios); by default objects round-robin over clusters.
        """
        for obj in catalog:
            self.place(obj, start_cluster=start_cluster)

    def _start_of(self, obj: MediaObject, start_cluster: Optional[int]) -> int:
        """Validated first cluster for an object about to be placed."""
        if obj.name in self._objects:
            raise LayoutError(f"object {obj.name!r} already placed")
        if start_cluster is None:
            start_cluster = len(self._objects) % self.num_clusters
        if not 0 <= start_cluster < self.num_clusters:
            raise LayoutError(
                f"start cluster {start_cluster} out of range "
                f"(0..{self.num_clusters - 1})")
        return start_cluster

    def _block_sequence(self, obj: MediaObject, start: int, rank: int,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Disk of each of ``obj``'s blocks in allocation order (group by
        group, data offsets then parity), with the sequence indices of
        its data tracks and of its parity blocks."""
        stripe = self.data_disks_per_group
        tracks = np.arange(obj.num_tracks)
        groups = np.arange(self.group_count(obj))
        data, parity = self._group_disks(groups, start, rank)
        data_at = tracks + tracks // stripe
        parity_at = groups * (stripe + 1) + stripe
        parity_at[-1] = len(tracks) + len(groups) - 1  # short tail group
        disks = np.empty(len(tracks) + len(groups), dtype=np.int64)
        disks[data_at] = data.ravel()[:len(tracks)]
        disks[parity_at] = parity
        return disks, data_at, parity_at

    # Allocation helper: only reachable from place(), which owns the bump.
    def _allocate(self, disks: np.ndarray) -> np.ndarray:  # repro: allow(epoch-cache)
        """Slot per block of an allocation sequence: the ``k``-th block on
        a disk pops its ``k``-th most recently freed slot, later ones
        take fresh slots from the high-water mark (LIFO, by rank)."""
        counts = np.bincount(disks, minlength=self.num_disks)
        order = np.argsort(disks, kind="stable")
        starts = np.cumsum(counts) - counts
        rank = np.empty_like(disks)
        rank[order] = np.arange(len(disks)) - np.repeat(starts, counts)
        positions = self._next_position[disks] + rank
        free = self._free_positions
        for disk_id, slots in list(free.items()):
            mine = order[starts[disk_id]:starts[disk_id] + counts[disk_id]]
            take = min(len(mine), len(slots))
            positions[mine] -= len(slots)
            positions[mine[:take]] = slots[::-1][:take]
            counts[disk_id] -= take
            del slots[len(slots) - take:]
            if not slots:
                del free[disk_id]
        self._next_position += counts
        return positions

    def remove(self, name: str) -> list[DiskAddress]:
        """Un-place an object, freeing its slots for reuse.

        Returns the freed addresses (data tracks, then parity groups) so
        the caller can discard the payloads from the drives (Section 1:
        "one or more disk-resident objects must be purged to make space").
        """
        self.object(name)
        disks, positions = self._flatten([self._placement.pop(name)])
        for disk_id, freed in self._by_disk(disks, positions):
            self._free_positions.setdefault(disk_id, []).extend(freed)
        del self._objects[name]
        del self._start_cluster[name]
        self._record_delta("remove", name)
        return list(map(DiskAddress, disks.tolist(), positions.tolist()))

    def occupied_positions(self, disk_id: int) -> int:
        """Slots currently holding blocks on a disk (high-water - freed)."""
        return int(self._next_position[disk_id]) - \
            len(self._free_positions.get(disk_id, ()))

    def placement_demand(self, obj: MediaObject,
                         start_cluster: Optional[int] = None,
                         ) -> dict[int, int]:
        """Blocks per disk that placing ``obj`` would allocate.

        Lets callers check fit against drive capacities *before* placing
        (placement itself is unconditional — the layout does not know the
        drives' sizes).  A pure probe: no placement state changes, not
        even the rank a first placement would assign.
        """
        start = self._start_of(obj, start_cluster)
        rank = self._object_rank.get(obj.name, len(self._object_rank))
        disks, _, _ = self._block_sequence(obj, start, rank)
        counts = np.bincount(disks, minlength=self.num_disks)
        return {disk_id: int(counts[disk_id])
                for disk_id in np.flatnonzero(counts).tolist()}

    # -- lookups ----------------------------------------------------------

    def object(self, name: str) -> MediaObject:
        """Look up a placed object."""
        try:
            return self._objects[name]
        except KeyError:
            raise LayoutError(f"object {name!r} is not placed") from None

    def has_object(self, name: str) -> bool:
        """True if an object of that name is currently placed (O(1))."""
        return name in self._objects

    def placement(self, name: str) -> Placement:
        """The read-only address arrays of one placed object."""
        self.object(name)
        return self._placement[name]

    @property
    def object_names(self) -> frozenset[str]:
        """Names of every placed object, cached until placement changes.

        Admission consults this on every request; rebuilding a set from
        :attr:`objects` per admission is O(catalog) and shows up at scale.
        """
        if self._names_cache is None:
            self._names_cache = frozenset(self._objects)
        return self._names_cache

    def start_cluster(self, name: str) -> int:
        """Cluster of object ``name``'s first parity group."""
        self.object(name)
        return self._start_cluster[name]

    def group_count(self, obj: MediaObject) -> int:
        """Number of parity groups the object occupies."""
        stripe = self.data_disks_per_group
        return (obj.num_tracks + stripe - 1) // stripe

    def group_of(self, name: str, track: int) -> tuple[int, int]:
        """``(group_index, offset_within_group)`` of one data track."""
        obj = self.object(name)
        if not 0 <= track < obj.num_tracks:
            raise LayoutError(
                f"track {track} out of range for {name!r} "
                f"({obj.num_tracks} tracks)"
            )
        stripe = self.data_disks_per_group
        return track // stripe, track % stripe

    # Geometry memo: keyed by (name, group), placement is fixed at
    # construction, so the write is idempotent and value-deterministic —
    # safe for ff eligibility probes to trigger.  # repro: allow(R8)
    def group_tracks(self, name: str, group: int) -> list[int]:
        """The data-track indices of one parity group, ascending.

        Returns the memoized list itself — treat it as immutable.
        """
        key = (name, group)
        cached = self._tracks_cache.get(key)
        if cached is not None:
            return cached
        obj = self.object(name)
        stripe = self.data_disks_per_group
        first = group * stripe
        if not 0 <= first < obj.num_tracks:
            raise LayoutError(f"group {group} out of range for {name!r}")
        tracks = list(range(first, min(first + stripe, obj.num_tracks)))
        self._tracks_cache[key] = tracks
        return tracks

    def data_address(self, name: str, track: int) -> DiskAddress:
        """Physical address of one data track."""
        self.group_of(name, track)  # validates
        placed = self._placement[name]
        return DiskAddress(int(placed.data_disks[track]),
                           int(placed.data_positions[track]))

    def parity_address(self, name: str, group: int) -> DiskAddress:
        """Physical address of one parity block."""
        placed = self._placement.get(name)
        if placed is None or not 0 <= group < len(placed.parity_disks):
            raise LayoutError(f"no parity group {group} for object {name!r}")
        return DiskAddress(int(placed.parity_disks[group]),
                           int(placed.parity_positions[group]))

    # Geometry memo: keyed by (name, group), placement is fixed at
    # construction, so the write is idempotent and value-deterministic —
    # safe for ff eligibility probes to trigger.  # repro: allow(R8)
    def group_span(self, name: str, group: int) -> GroupSpan:
        """The full physical footprint of one parity group (memoized)."""
        key = (name, group)
        cached = self._span_cache.get(key)
        if cached is not None:
            return cached
        tracks = self.group_tracks(name, group)
        span = GroupSpan(
            object_name=name,
            group_index=group,
            data=tuple(self.data_address(name, t) for t in tracks),
            parity=self.parity_address(name, group),
        )
        self._span_cache[key] = span
        return span

    def group_geometry(self, name: str, group: int,
                       ) -> tuple[tuple[tuple[int, int], ...],
                                  tuple[int, int]]:
        """``((disk_id, position) per data track, (disk_id, position))``.

        The plain-tuple counterpart of :meth:`group_span` for the
        schedulers' per-cycle plan building: no dataclass construction,
        memoized until placement changes.  Treat the result as immutable.
        """
        cached = self._geometry_cache.get((name, group))
        if cached is None:
            placed = self.placement(name)
            stripe = self.data_disks_per_group
            if not 0 <= group < len(placed.parity_disks):
                raise LayoutError(f"group {group} out of range for {name!r}")
            # Streams read groups in order, so a miss fills the memo for
            # a window of groups from one slice of the placement arrays.
            end = min(group + GEOMETRY_WINDOW, len(placed.parity_disks))
            tracks = slice(group * stripe, end * stripe)
            members = list(zip(placed.data_disks[tracks].tolist(),
                               placed.data_positions[tracks].tolist()))
            for at, parity in enumerate(zip(
                    placed.parity_disks[group:end].tolist(),
                    placed.parity_positions[group:end].tolist())):
                self._geometry_cache.setdefault((name, group + at), (tuple(
                    members[at * stripe:(at + 1) * stripe]), parity))
            cached = self._geometry_cache[(name, group)]
        return cached

    # Geometry memo: keyed by (name, group), placement is fixed at
    # construction, so the write is idempotent and value-deterministic —
    # safe for ff eligibility probes to trigger.  # repro: allow(R8)
    def group_cluster(self, name: str, group: int) -> int:
        """Cluster holding the *data* blocks of one parity group."""
        key = (name, group)
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached
        span = self.group_span(name, group)
        cluster = self.cluster_of(span.data[0].disk_id)
        self._cluster_cache[key] = cluster
        return cluster

    def blocks_on_disk(self, disk_id: int) -> list[StoredBlock]:
        """Everything stored on one disk, in allocation order."""
        if not 0 <= disk_id < self.num_disks:
            raise LayoutError(f"no such disk: {disk_id}")
        stripe = self.data_disks_per_group
        blocks: list[StoredBlock] = []
        for name, placed in self._placement.items():
            tracks = np.flatnonzero(placed.data_disks == disk_id)
            groups = np.flatnonzero(placed.parity_disks == disk_id)
            # Sort by allocation-sequence index (see _block_sequence).
            keys = np.concatenate((tracks + tracks // stripe,
                                   groups * (stripe + 1) + stripe))
            indices = np.concatenate((tracks, groups)).tolist()
            for at in np.argsort(keys).tolist():
                kind = BlockKind.DATA if at < len(tracks) else BlockKind.PARITY
                blocks.append(StoredBlock(name, kind, indices[at]))
        return blocks

    def used_positions(self, disk_id: int) -> int:
        """How many track slots the layout has allocated on a disk."""
        return int(self._next_position[disk_id])

    # -- failure analysis --------------------------------------------------

    def groups_sharing_disk_pair(self, disk_a: int, disk_b: int) -> bool:
        """True if some parity group contains blocks on both disks."""
        if disk_a == disk_b:
            return True
        stripe = self.data_disks_per_group
        for placed in self._placement.values():
            on_a, on_b = (np.union1d(
                np.flatnonzero(placed.data_disks == disk) // stripe,
                np.flatnonzero(placed.parity_disks == disk))
                for disk in (disk_a, disk_b))
            if np.intersect1d(on_a, on_b).size:
                return True
        return False

    def is_catastrophic(self, failed_ids: Iterable[int]) -> bool:
        """True if the failure set loses data (>= 2 failures in one group).

        Subclasses may override with a geometric shortcut; this generic
        implementation checks actual group membership.
        """
        failed = sorted(set(failed_ids))
        for i, disk_a in enumerate(failed):
            for disk_b in failed[i + 1:]:
                if self.groups_sharing_disk_pair(disk_a, disk_b):
                    return True
        return False

    # -- materialisation ----------------------------------------------------

    def materialise(self, array: DiskArray) -> None:
        """Write every placed object's payloads and parity onto the array.

        Tracks shorter groups (an object's tail) are padded with zero blocks
        for the parity computation, matching how a real loader would zero
        the unused stripe units.

        On a metadata-only array (``store_payloads=False``) no bytes are
        generated at all: each disk's addresses are marked occupied in one
        bulk write, and the real payloads stay derivable on demand through
        :meth:`resolve_payload`.
        """
        if len(array) != self.num_disks:
            raise ConfigurationError(
                f"layout expects {self.num_disks} disks, array has {len(array)}"
            )
        if not array.store_payloads:
            for disk_id, positions in self._by_disk(
                    *self._flatten(self._placement.values())):
                array[disk_id].write_meta_many(positions)
            return
        for obj in self._objects.values():
            self.materialise_object(array, obj.name)

    def materialise_object(self, array: DiskArray, name: str) -> None:
        """Write one placed object's payloads and parity onto the array
        (the per-object loader the tertiary staging path uses)."""
        obj = self.object(name)
        disks, positions = self._flatten([self._placement[name]])
        if not array.store_payloads:
            # Metadata-only: mark occupancy, derive payloads lazily.
            for disk_id, chunk in self._by_disk(disks, positions):
                array[disk_id].write_meta_many(chunk)
            return
        track_bytes = mb_to_bytes(array.spec.track_size_mb)
        # Generate every data track, then encode every group's parity as
        # one matrix XOR (short tail rows are implicitly zero-padded —
        # the XOR identity); write them all in block order.
        payloads = [obj.track_payload(track, track_bytes)
                    for track in range(obj.num_tracks)]
        stripe = self.data_disks_per_group
        payloads += xor_matrix([payloads[first:first + stripe]
                                for first in range(0, obj.num_tracks, stripe)])
        for disk_id, position, payload in zip(disks.tolist(),
                                              positions.tolist(), payloads):
            array[disk_id].write(position, payload)

    @staticmethod
    def _flatten(placements: Iterable[Placement],
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Disk and position of every block of ``placements``: object by
        object, data tracks in order and then parity groups."""
        empty = np.zeros(0, dtype=np.int64)
        disks, positions = [empty], [empty]
        for placed in placements:
            disks += (placed.data_disks, placed.parity_disks)
            positions += (placed.data_positions, placed.parity_positions)
        return np.concatenate(disks), np.concatenate(positions)

    @staticmethod
    def _by_disk(disks: np.ndarray, positions: np.ndarray,
                 ) -> Iterator[tuple[int, list[int]]]:
        """``(disk, its positions)`` per disk of a block sequence, each
        disk's positions kept in sequence order."""
        order = np.argsort(disks, kind="stable")
        ids, starts = np.unique(disks[order], return_index=True)
        return zip(ids.tolist(), (chunk.tolist() for chunk in
                                  np.split(positions[order], starts[1:])))

    # -- lazy payload derivation (metadata-only mode) -----------------------

    def block_at(self, disk_id: int, position: int) -> StoredBlock:
        """The logical block stored at one physical address (a scan of
        the placement arrays); raises :class:`LayoutError` for
        unoccupied addresses."""
        for name, placed in self._placement.items():
            for kind, disks, positions in (
                    (BlockKind.DATA, placed.data_disks, placed.data_positions),
                    (BlockKind.PARITY, placed.parity_disks,
                     placed.parity_positions)):
                hit = np.flatnonzero((disks == disk_id)
                                     & (positions == position))
                if hit.size:
                    return StoredBlock(name, kind, int(hit[0]))
        raise LayoutError(
            f"disk {disk_id} position {position} holds no placed block")

    def resolve_payload(self, disk_id: int, position: int,
                        track_bytes: int) -> bytes:
        """Derive the bytes one physical address *should* hold.

        This is the deterministic seed function behind metadata-only mode:
        data tracks expand from the object's seeded generator, parity
        blocks are the XOR of their group's data tracks.  Works in either
        mode (in payload mode it reproduces what was written).
        """
        block = self.block_at(disk_id, position)
        obj = self.object(block.object_name)
        if block.kind is BlockKind.DATA:
            return obj.track_payload(block.index, track_bytes)
        tracks = self.group_tracks(block.object_name, block.index)
        return xor_blocks([obj.track_payload(t, track_bytes)
                           for t in tracks])

    def spot_check(self, array: DiskArray, name: str, group: int) -> bool:
        """Verify one parity group's stored state on demand.

        In payload mode, compares the stored data and parity bytes against
        the deterministic generator.  In metadata-only mode, checks that
        every group address is occupied and that the lazily derived
        payloads at those addresses satisfy the parity relation — the
        on-demand verification hook the fast path keeps available.
        """
        span = self.group_span(name, group)
        obj = self.object(name)
        track_bytes = mb_to_bytes(array.spec.track_size_mb)
        tracks = self.group_tracks(name, group)
        expected = [obj.track_payload(t, track_bytes) for t in tracks]
        expected_parity = xor_blocks(expected)
        if array.store_payloads:
            for address, payload in zip(span.data, expected):
                if array[address.disk_id].peek(address.position) != payload:
                    return False
            return array[span.parity.disk_id].peek(
                span.parity.position) == expected_parity
        # Metadata mode: every address must be occupied (peek raises on
        # holes) and the derived payloads must satisfy the parity relation.
        for address in span.data:
            array[address.disk_id].peek(address.position)
        array[span.parity.disk_id].peek(span.parity.position)
        derived = [self.resolve_payload(a.disk_id, a.position, track_bytes)
                   for a in span.data]
        derived_parity = self.resolve_payload(
            span.parity.disk_id, span.parity.position, track_bytes)
        return xor_blocks(derived) == derived_parity \
            and derived == expected and derived_parity == expected_parity

    # -- misc ---------------------------------------------------------------

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < self.num_disks:
            raise ConfigurationError(f"no such disk: {disk_id}")

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self.num_clusters:
            raise ConfigurationError(f"no such cluster: {cluster}")

    def describe(self) -> str:
        """One-line human description of the layout."""
        return (
            f"{type(self).__name__}(D={self.num_disks}, "
            f"C={self.parity_group_size}, clusters={self.num_clusters}, "
            f"objects={len(self._objects)})"
        )
