"""The Non-clustered scheduler (Section 3, Figures 5–7).

Normal mode reads only what the next cycle will deliver: one track per
stream per cycle (``k = k' = 1``) — minimal buffering, at the price of a
*transition* when a disk fails, because blocks are delivered before their
parity group is fully read (Observation 2 is deliberately violated).

Reads are paced by the delivery schedule: a stream admitted in cycle ``a``
naturally reads track ``t`` in cycle ``a + t`` and delivers it one cycle
later.  When a recovery burst fetches tracks early, the stream then idles
until its natural schedule catches up, so bursts do not ripple collisions
into healthy clusters.

On a data-disk failure the affected cluster borrows degraded-mode buffering
from the shared pool (Section 3's "buffer servers") and recovers under one
of two protocols:

* **EAGER** (Figure 6): streams *starting* a parity group on the degraded
  cluster read the entire group plus parity at once (group-at-a-time, as
  Streaming RAID would).  Moved-forward reads take recovery priority and
  may displace other streams' normal reads when slots are full; displaced
  tracks are lost.
* **LAZY** (Figure 7): reads stay on their natural schedule; only at the
  cycle where the *failed* block would have been read are the remaining
  blocks and the parity fetched together, and the missing block is rebuilt
  from a running XOR of every member seen since the group began.  Fewer
  tracks are displaced than under EAGER.

Streams caught *mid-group* by the failure cannot be helped: members
delivered before the failure are gone, so their failed block is lost
(Figures 6–7's W2/Y2) and they simply skip it.  Once the transition
completes, delivery follows the original schedule with no further hiccups
until the disk is repaired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.buffers.pool import BufferPool
from repro.errors import BufferExhausted
from repro.media.objects import MediaObject
from repro.sched.base import CycleScheduler, ReadTable
from repro.sched.plan import PlannedRead, ReadKind, ReadPurpose
from repro.server.metrics import CycleReport, HiccupCause
from repro.server.stream import Stream


class TransitionProtocol(enum.Enum):
    """How a cluster shifts into degraded mode."""

    EAGER = "eager"  # Figure 6: whole group at once, from the group start
    LAZY = "lazy"    # Figure 7: delay reads until needed, running XOR


@dataclass(slots=True)
class _Accumulator:
    """Running XOR for one (stream, group) reconstruction (LAZY mode)."""

    payload: bytes
    needed: set[object]                      # track indices plus "parity"
    folded: set[object] = field(default_factory=set)
    target_track: int = -1

    @property
    def complete(self) -> bool:
        """True once every needed source has been folded in."""
        return self.needed == self.folded


class NonClusteredScheduler(CycleScheduler):
    """One track per stream per cycle, with failure-transition protocols."""

    __slots__ = ("protocol", "pool", "_completed_reconstructions",
                 "_reconstructions_credited", "_degraded", "_unprotected",
                 "_accumulators")

    def __init__(self, *args: Any,
                 protocol: TransitionProtocol = TransitionProtocol.LAZY,
                 pool: Optional[BufferPool] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.protocol = protocol
        self.pool = pool
        self._completed_reconstructions = 0
        self._reconstructions_credited = 0
        #: cluster -> set of failed *data-disk* offsets within the cluster.
        self._degraded: dict[int, set[int]] = {}
        #: clusters that wanted a pool lease and were refused.
        self._unprotected: set[int] = set()
        self._accumulators: dict[tuple[int, int], _Accumulator] = {}

    # -- failure bookkeeping ---------------------------------------------------

    def on_disk_failure(self, disk_id: int) -> None:
        """Mark the cluster degraded, lease pool buffers, start transition."""
        cluster = self.layout.cluster_of(disk_id)
        if self.layout.is_parity_disk(disk_id):
            # A parity-disk failure costs nothing in normal mode: there is
            # nothing to reconstruct unless a data disk also fails, which
            # would be catastrophic regardless.
            return
        data_disks = self.layout.cluster_disks(cluster)[:-1]
        offset = data_disks.index(disk_id)
        self._degraded.setdefault(cluster, set()).add(offset)
        if self.pool is not None:
            try:
                self.pool.acquire(cluster)
            except BufferExhausted:
                self._unprotected.add(cluster)
        self._begin_transition(cluster)

    def on_disk_repair(self, disk_id: int) -> None:
        """Clear the degraded state and return the pool lease."""
        cluster = self.layout.cluster_of(disk_id)
        if self.layout.is_parity_disk(disk_id):
            return
        data_disks = self.layout.cluster_disks(cluster)[:-1]
        offset = data_disks.index(disk_id)
        failed = self._degraded.get(cluster)
        if failed is not None:
            failed.discard(offset)
            if not failed:
                del self._degraded[cluster]
                self._unprotected.discard(cluster)
                if self.pool is not None:
                    self.pool.release(cluster)

    def _begin_transition(self, cluster: int) -> None:
        """At failure time, account for what the in-flight groups lose.

        A stream mid-way through a group on the failed cluster has already
        delivered (or is about to deliver) its early members, so an unread
        block on the failed disk can never be rebuilt — the paper's W2/Y2
        losses.  Streams exactly at a group boundary can still be saved;
        LAZY opens their running XOR immediately.
        """
        for stream in self.active_streams:
            state = self._group_state(stream)
            if state is None:
                continue
            group, group_cluster, tracks, failed_offsets, next_offset = state
            if group_cluster != cluster or not failed_offsets:
                continue
            recoverable = (len(failed_offsets) == 1 and next_offset == 0
                           and cluster not in self._unprotected
                           and self._parity_available(stream, group))
            cause = (HiccupCause.BUFFER_EXHAUSTED
                     if cluster in self._unprotected
                     else HiccupCause.DISK_FAILURE)
            if not recoverable:
                self._mark_lost(
                    [(stream.stream_id, tracks[offset])
                     for offset in failed_offsets
                     if offset < len(tracks)
                     and tracks[offset] >= stream.next_read_track],
                    cause)
            if recoverable and self.protocol is TransitionProtocol.LAZY:
                self._open_accumulator(stream, group, tracks,
                                       failed_offsets[0])

    def _capacity_penalty(self) -> int:
        """Pool pressure: unprotected degraded clusters cost capacity.

        A degraded cluster that could not lease buffer servers from the
        shared pool serves its streams with unrecoverable losses; charging
        that cluster's share of the stream bound lets the front door shed
        or reject instead of admitting streams into a hiccup storm.
        """
        if not self._unprotected:
            return 0
        cluster_share = max(
            1, self.admission_limit // max(1, self.layout.num_clusters))
        return len(self._unprotected) * cluster_share

    # -- planning ------------------------------------------------------------------

    def _group_state(self, stream: Stream,
                     ) -> Optional[tuple[int, int, list[int],
                                         list[int], int]]:
        """Current reading group of a stream, or None when done reading."""
        if not stream.reads_remaining:
            return None
        name = stream.object.name
        group, next_offset = divmod(stream.next_read_track, self._stripe)
        tracks = self.layout.group_tracks(name, group)
        cluster = self.layout.group_cluster(name, group)
        failed_offsets = sorted(self._degraded.get(cluster, ()))
        return group, cluster, tracks, failed_offsets, next_offset

    def _schedule_target(self, stream: Stream, cycle: int) -> int:
        """Tracks the delivery schedule wants read by the end of ``cycle``.

        A rate-r stream reads r tracks per cycle; a recovery burst that
        fetched ahead of this target leaves the stream idle until the
        schedule catches up.
        """
        return (cycle - stream.admitted_cycle + 1) * stream.rate

    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """Rate-paced track reads, with degraded-mode bursts as needed."""
        plans: list[PlannedRead] = []
        # Direct table iteration: no per-cycle snapshot list (churn path).
        for stream in self.streams.values():
            if not stream.is_active:
                continue
            target = self._schedule_target(stream, cycle)
            for _ in range(stream.rate):
                if not stream.reads_remaining:
                    break
                if stream.next_read_track >= target:
                    break  # a burst put this stream ahead of schedule
                self._plan_one_quantum(stream, plans)
        return plans

    def _plan_one_quantum(self, stream: Stream,
                          plans: list[PlannedRead]) -> None:
        """One planning action: a track read, a skip, or a burst."""
        if not self._degraded:
            # No cluster is degraded: every stream is on its natural
            # one-track schedule (bursts and skips only exist in degraded
            # mode), so skip the group-state resolution entirely.
            if stream.reads_remaining:
                self._plan_one_track(stream, plans)
            return
        state = self._group_state(stream)
        if state is None:
            return
        group, cluster, tracks, failed_offsets, next_offset = state
        # Failed offsets beyond a short tail group do not affect it.
        failed_offsets = [o for o in failed_offsets if o < len(tracks)]
        recoverable = (len(failed_offsets) == 1
                       and cluster not in self._unprotected
                       and self._parity_available(stream, group))
        if not failed_offsets:
            self._plan_one_track(stream, plans)
        elif self.protocol is TransitionProtocol.EAGER and recoverable \
                and next_offset == 0:
            self._plan_eager_burst(stream, group, tracks,
                                   failed_offsets[0], plans)
        else:
            if self.protocol is TransitionProtocol.LAZY and recoverable \
                    and next_offset == 0:
                self._open_accumulator(stream, group, tracks,
                                       failed_offsets[0])
            if self.protocol is TransitionProtocol.LAZY \
                    and (stream.stream_id, group) in self._accumulators \
                    and next_offset == failed_offsets[0]:
                self._plan_lazy_burst(stream, group, tracks,
                                      failed_offsets[0], plans)
            else:
                self._plan_with_skips(stream, group, tracks,
                                      failed_offsets, cluster, plans)

    def _parity_available(self, stream: Stream, group: int) -> bool:
        address = self.layout.parity_address(stream.object.name, group)
        return not self.array[address.disk_id].is_failed

    def _data_read(self, stream: Stream, track: int,
                   purpose: ReadPurpose) -> PlannedRead:
        address = self.layout.data_address(stream.object.name, track)
        return PlannedRead(
            disk_id=address.disk_id,
            position=address.position,
            stream_id=stream.stream_id,
            object_name=stream.object.name,
            kind=ReadKind.DATA,
            index=track,
            purpose=purpose,
        )

    def _parity_read(self, stream: Stream, group: int) -> PlannedRead:
        address = self.layout.parity_address(stream.object.name, group)
        return PlannedRead(
            disk_id=address.disk_id,
            position=address.position,
            stream_id=stream.stream_id,
            object_name=stream.object.name,
            kind=ReadKind.PARITY,
            index=group,
            purpose=ReadPurpose.RECOVERY,
        )

    def _plan_one_track(self, stream: Stream, plans: list[PlannedRead],
                        ) -> None:
        """Healthy cluster: fetch exactly the next track."""
        plans.append(self._data_read(stream, stream.next_read_track,
                                     ReadPurpose.NORMAL))
        stream.next_read_track += 1

    def _plan_with_skips(self, stream: Stream, group: int,
                         tracks: list[int], failed_offsets: list[int],
                         cluster: int, plans: list[PlannedRead]) -> None:
        """Degraded cluster, unrecoverable (or mid-group) stream: natural
        pace, skipping the failed offsets."""
        offset = stream.next_read_track - tracks[0]
        if offset in failed_offsets:
            cause = (HiccupCause.BUFFER_EXHAUSTED
                     if cluster in self._unprotected
                     else HiccupCause.DISK_FAILURE)
            self._mark_lost([(stream.stream_id, stream.next_read_track)],
                            cause)
            stream.next_read_track += 1
            return  # the failed disk's cycle passes idle for this stream
        plans.append(self._data_read(stream, stream.next_read_track,
                                     ReadPurpose.NORMAL))
        stream.next_read_track += 1

    def _plan_eager_burst(self, stream: Stream, group: int,
                          tracks: list[int], failed_offset: int,
                          plans: list[PlannedRead]) -> None:
        """Figure 6: read the whole group (and parity) at the group start."""
        for offset, track in enumerate(tracks):
            if offset == failed_offset:
                continue
            purpose = (ReadPurpose.NORMAL if offset == 0
                       else ReadPurpose.RECOVERY)
            plans.append(self._data_read(stream, track, purpose))
        if failed_offset < len(tracks):
            plans.append(self._parity_read(stream, group))
        stream.next_read_track = tracks[-1] + 1

    def _plan_lazy_burst(self, stream: Stream, group: int,
                         tracks: list[int], failed_offset: int,
                         plans: list[PlannedRead]) -> None:
        """Figure 7: at the failed block's own cycle, fetch the remaining
        members and the parity together."""
        for offset in range(failed_offset + 1, len(tracks)):
            plans.append(self._data_read(stream, tracks[offset],
                                         ReadPurpose.RECOVERY))
        plans.append(self._parity_read(stream, group))
        stream.next_read_track = tracks[-1] + 1

    # -- accumulators -----------------------------------------------------------------

    def _open_accumulator(self, stream: Stream, group: int,
                          tracks: list[int], failed_offset: int) -> None:
        if failed_offset >= len(tracks):
            return  # the tail group is too short to contain the failure
        if tracks[failed_offset] < stream.next_read_track:
            return  # the failed block was read before the failure
        key = (stream.stream_id, group)
        if key in self._accumulators:
            return
        needed: set[object] = {tracks[o] for o in range(len(tracks))
                               if o != failed_offset}
        needed.add("parity")
        self._accumulators[key] = _Accumulator(
            payload=self.codec.zero_block(),
            needed=needed,
            target_track=tracks[failed_offset],
        )
        stream.accumulators[group] = self._accumulators[key].payload

    def _fold(self, stream: Stream, group: int, source: object,
              payload: bytes) -> None:
        key = (stream.stream_id, group)
        acc = self._accumulators.get(key)
        if acc is None or source in acc.folded or source not in acc.needed:
            return
        acc.payload = self.codec.accumulate(acc.payload, payload)
        acc.folded.add(source)
        stream.accumulators[group] = acc.payload
        if acc.complete:
            stream.store_track(acc.target_track, acc.payload)
            self._lost_causes.pop((stream.stream_id, acc.target_track), None)
            stream.lost_tracks.discard(acc.target_track)
            stream.reconstructed_tracks += 1
            self._completed_reconstructions += 1
            del self._accumulators[key]
            stream.accumulators.pop(group, None)

    def _delivery_hook_needed(self) -> bool:
        return bool(self._accumulators)

    def _on_read_executed(self, stream: Stream, plan: PlannedRead,
                          payload: bytes) -> None:
        if not self._accumulators:
            return
        if plan.kind is ReadKind.PARITY:
            self._fold(stream, plan.index, "parity", payload)
        else:
            self._fold(stream, plan.index // self._stripe, plan.index,
                       payload)

    def _on_track_delivered(self, stream: Stream, track: int,
                            payload: bytes) -> None:
        if not self._accumulators:
            return
        self._fold(stream, track // self._stripe, track, payload)

    # -- drop handling ----------------------------------------------------------------

    def _handle_dropped(self, dropped: list[PlannedRead],
                        report: CycleReport) -> None:
        data = ReadKind.DATA
        self._mark_lost([(plan.stream_id, plan.index) for plan in dropped
                         if plan.kind is data],
                        HiccupCause.TRANSITION if self._degraded
                        else HiccupCause.SLOT_OVERFLOW)
        for plan in dropped:
            if plan.kind is data:
                continue
            # A dropped parity read dooms the reconstruction (its target
            # track is on a failed disk, so no dropped data read names it).
            stream = self.streams.get(plan.stream_id)
            if stream is None:
                continue
            key = (plan.stream_id, plan.index)
            acc = self._accumulators.pop(key, None)
            if acc is not None:
                stream.accumulators.pop(plan.index, None)
                self._mark_lost([(plan.stream_id, acc.target_track)],
                                HiccupCause.DISK_FAILURE)

    def _extra_buffer_tracks(self) -> int:
        return self.pool.tracks_in_use if self.pool is not None else 0

    # -- reconstruction accounting ----------------------------------------------------

    def _finalise(self, report: CycleReport) -> None:
        """Credit accumulator completions since the last report.

        Must happen *before* :meth:`SimulationReport.record` (not after,
        as a ``run_cycle`` wrapper would) so bounded-tail reducers fold
        the credited count.
        """
        super()._finalise(report)
        report.reconstructions += (self._completed_reconstructions
                                   - self._reconstructions_credited)
        self._reconstructions_credited = self._completed_reconstructions

    # -- quiescent fast-forward --------------------------------------------------------

    def _fast_forward_ready(self) -> bool:
        """Veto while any cluster is degraded or a running XOR is open."""
        return (not self._degraded and not self._unprotected
                and not self._accumulators)

    def _ff_gate_params(self, stream: Stream) -> tuple[int, int, int, int]:
        """Vector gate: pace reads on the natural delivery schedule."""
        return stream.rate, stream.admitted_cycle, 1, 0

    # -- degraded fast-forward ---------------------------------------------------------

    def _ff_degraded_ready(self) -> bool:
        """The degraded engine models exactly the states the quiescent
        veto refuses: degraded clusters, open running XORs, and even
        unprotected clusters (whose lost-track positions the read table
        marks invalid, bailing before the scalar path would shed)."""
        return True

    def _ff_lazy_window(self, stream: Stream,
                        ) -> Optional[tuple[int, list[int], int]]:
        """``(group, tracks, failed offset)`` when the canonical LAZY
        schedule holds an open accumulator at the stream's read pointer
        (strictly after the group start, at or before the failed
        offset), else None."""
        if self.protocol is not TransitionProtocol.LAZY:
            return None
        if not stream.reads_remaining:
            return None
        group, offset = divmod(stream.next_read_track, self._stripe)
        name = stream.object.name
        tracks = self.layout.group_tracks(name, group)
        cluster = self.layout.group_cluster(name, group)
        failed = [o for o in sorted(self._degraded.get(cluster, ()))
                  if o < len(tracks)]
        if len(failed) != 1 or cluster in self._unprotected:
            return None
        if not self._parity_available(stream, group):
            return None
        if not 1 <= offset <= failed[0]:
            return None
        return group, tracks, failed[0]

    def _ff_degraded_stream_ok(self, stream: Stream) -> bool:
        """The stream must rest exactly on the canonical degraded
        trajectory: one open running XOR iff the pointer is inside a
        LAZY recovery window (with precisely the already-read members
        folded), and never strictly past a recoverable group's burst
        offset — a stream there crossed the group before the failure, so
        it holds neither parity nor XOR and the static tables cannot
        predict its buffers (it re-enters once delivery drains the
        group)."""
        sid = stream.stream_id
        window = self._ff_lazy_window(stream)
        if window is None:
            if stream.accumulators or any(
                    key[0] == sid for key in self._accumulators):
                return False
        else:
            group, tracks, f = window
            if set(stream.accumulators) != {group}:
                return False
            if any(key[0] == sid and key[1] != group
                   for key in self._accumulators):
                return False
            acc = self._accumulators.get((sid, group))
            if acc is None:
                return False
            offset = stream.next_read_track - tracks[0]
            needed: set[object] = {t for i, t in enumerate(tracks)
                                   if i != f}
            needed.add("parity")
            if not (acc.target_track == tracks[f]
                    and acc.needed == needed
                    and acc.folded == set(tracks[:offset])):
                return False
        if not stream.reads_remaining:
            return True
        group, offset = divmod(stream.next_read_track, self._stripe)
        name = stream.object.name
        tracks = self.layout.group_tracks(name, group)
        cluster = self.layout.group_cluster(name, group)
        failed = [o for o in sorted(self._degraded.get(cluster, ()))
                  if o < len(tracks)]
        if (len(failed) == 1 and cluster not in self._unprotected
                and self._parity_available(stream, group)):
            burst_offset = (0 if self.protocol is TransitionProtocol.EAGER
                            or failed[0] == 0 else failed[0])
            if offset > burst_offset:
                return False
        return True

    def _ff_degraded_sync_stream(self, stream: Stream) -> None:
        """Rematerialise the stream's running XOR at its new pointer.

        In metadata mode every fold yields the zero-length token, so the
        accumulator's payload is :meth:`ParityCodec.zero_block` verbatim
        and only the bookkeeping (needed/folded/target) must be rebuilt.
        """
        sid = stream.stream_id
        for key in [k for k in self._accumulators if k[0] == sid]:
            del self._accumulators[key]
        if not stream.is_active:
            return  # complete() already cleared the stream side
        stream.accumulators.clear()
        window = self._ff_lazy_window(stream)
        if window is None:
            return
        group, tracks, f = window
        offset = stream.next_read_track - tracks[0]
        needed: set[object] = {t for i, t in enumerate(tracks) if i != f}
        needed.add("parity")
        acc = _Accumulator(
            payload=self.codec.zero_block(),
            needed=needed,
            folded=set(tracks[:offset]),
            target_track=tracks[f],
        )
        self._accumulators[(sid, group)] = acc
        stream.accumulators[group] = acc.payload

    def _ff_degraded_credit(self, reconstructions: int) -> None:
        """LAZY reconstructions complete through the accumulator path,
        which the scalar run counts on the scheme's counters and credits
        in :meth:`_finalise`; the engine has already folded the count
        into its cycle reports, so both counters advance together.
        EAGER reconstructions go through the base reconstruct phase and
        touch neither counter."""
        if self.protocol is TransitionProtocol.LAZY:
            self._completed_reconstructions += reconstructions
            self._reconstructions_credited += reconstructions

    def _ff_degraded_pool_tracks(self, open_accumulators: int) -> int:
        """Pool commitment is lease-granular (per degraded cluster), not
        per accumulator, so it is constant across a degraded epoch."""
        return self.pool.tracks_in_use if self.pool is not None else 0

    def _ff_read_table(self, obj: MediaObject) -> ReadTable:
        """Per-track table (divisor 1): natural-pace single reads.

        With no cluster degraded, the cached geometry's flat member
        array already lists the data disk of every track in order, so
        the table is a reindexing of it — no per-track address lookups.
        Otherwise the protocol's recovery burst is folded into the
        group's scalar burst position — EAGER at the group start, LAZY
        at the failed offset (where the running XOR completes
        same-cycle) — and unrecoverable failed offsets are invalid
        rows: the scalar path sheds the track there, a transition the
        engine must not cross.
        """
        _cnt, _ptr, geometry_disks, _parity, _nxt = \
            self._ff_object_geometry(obj)
        if not self._degraded:
            tracks = obj.num_tracks
            pointers = np.arange(tracks + 1, dtype=np.int64)
            return (np.ones(tracks, dtype=np.int64), pointers,
                    geometry_disks, pointers[1:], 1, None)
        stripe = self._stripe
        layout = self.layout
        name = obj.name
        disks = geometry_disks.tolist()
        sizes: list[int] = []
        flat: list[int] = []
        nexts: list[int] = []
        data_counts: list[int] = []
        parity_flags: list[int] = []
        valid: list[bool] = []
        deg_pairs: list[tuple[int, int]] = []
        acc_info: dict[int, tuple[int, int]] = {}
        eager = self.protocol is TransitionProtocol.EAGER

        def single(track: int) -> None:
            sizes.append(1)
            flat.append(disks[track])
            nexts.append(track + 1)
            data_counts.append(1)
            parity_flags.append(0)
            valid.append(True)

        def lost(track: int) -> None:
            sizes.append(0)
            nexts.append(track + 1)
            data_counts.append(0)
            parity_flags.append(0)
            valid.append(False)

        for group in range(-(-obj.num_tracks // stripe)):
            tracks = layout.group_tracks(name, group)
            cluster = layout.group_cluster(name, group)
            failed = [o for o in sorted(self._degraded.get(cluster, ()))
                      if o < len(tracks)]
            if not failed:
                for track in tracks:
                    single(track)
                continue
            parity_disk = layout.parity_address(name, group).disk_id
            recoverable = (len(failed) == 1
                           and cluster not in self._unprotected
                           and not self.array[parity_disk].is_failed)
            f = failed[0]
            after = tracks[-1] + 1
            for offset, track in enumerate(tracks):
                if not recoverable:
                    if offset in failed:
                        lost(track)
                    else:
                        single(track)
                elif eager:
                    if offset == 0:
                        burst = [disks[m] for o, m in enumerate(tracks)
                                 if o != f]
                        burst.append(parity_disk)
                        sizes.append(len(burst))
                        flat.extend(burst)
                        nexts.append(after)
                        data_counts.append(len(tracks) - 1)
                        parity_flags.append(1)
                        valid.append(True)
                        deg_pairs.append((group, after))
                    elif offset == f:
                        # Mid-group under EAGER: the burst was missed, so
                        # the scalar path sheds the failed track here.
                        lost(track)
                    else:
                        single(track)
                elif offset == f:
                    burst = [disks[m] for m in tracks[f + 1:]]
                    burst.append(parity_disk)
                    sizes.append(len(burst))
                    flat.extend(burst)
                    nexts.append(after)
                    data_counts.append(len(tracks) - f - 1)
                    parity_flags.append(1)
                    valid.append(True)
                    deg_pairs.append((group, after))
                    if f >= 1:
                        acc_info[group] = (tracks[0] + 1, tracks[f])
                else:
                    single(track)
        cnt = np.asarray(sizes, dtype=np.int64)
        ptr = np.zeros(len(cnt) + 1, dtype=np.int64)
        np.cumsum(cnt, out=ptr[1:])
        return (cnt, ptr, np.asarray(flat, dtype=np.int64),
                np.asarray(nexts, dtype=np.int64), 1,
                (np.asarray(data_counts, dtype=np.int64),
                 np.asarray(parity_flags, dtype=np.int64),
                 np.asarray(valid, dtype=bool), tuple(deg_pairs), acc_info))
