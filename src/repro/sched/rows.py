"""Struct-of-arrays stream rows for the vectorised epoch engine.

An epoch engine keeps one row per stream it advances: int64 columns for
pointers, delivery quota, read gates and per-epoch deltas, and bool
masks for the lifecycle.  :class:`EpochRows` owns those columns for the
whole epoch:

* it starts at the live population and grows by doubling when an
  admitted batch does not fit, so an epoch that takes arrivals sizes its
  arrays to the streams actually live, not to every arrival in the
  window;
* an admitted batch lands with a few block stores (the int columns
  live as rows of one 2-D array, the bool masks of another), not a
  dozen numpy scalar stores per stream;
* completed rows are *retired* mid-epoch: each gets the end-of-epoch
  write-back to its :class:`~repro.server.stream.Stream` (pointers,
  delivered and reconstructed counts, start cycle, activate then
  complete, the degraded sync) and its raised buffer peak joins the
  epoch's tracker fold.  Once retired rows are at least half the store,
  the live rows are compacted to the front.

Every column attribute is a view of the first :attr:`size` rows, so the
engine's per-cycle array expressions cost O(live streams).  Views are
re-cut after every :meth:`add` and compaction; callers must not hold
one across those calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.parity.xor import META_PAYLOAD
from repro.server.stream import Stream, StreamStatus

if TYPE_CHECKING:
    from repro.sched.base import CycleScheduler

#: int64 columns, one row each of a 2-D block.  The first
#: ``STATIC_COLUMNS`` come from the stream's object and scheme (table
#: bases, object length, per-cycle quota, read-gate parameters); the rest
#: are its state (pointers, delivery start cycle — -1 before the first
#: read —, per-epoch delivered/reconstructed deltas, buffer peak at entry
#: and so far).
INT_COLUMNS = ("obj_base", "held_base", "num_tracks", "quota", "pace_rate",
               "pace_base", "phase_mod", "phase_val", "next_read",
               "next_del", "start", "deliv", "recon", "peak0", "peak")
STATIC_COLUMNS = 8
#: The state columns of a just-admitted stream.
FRESH_STATE = np.array([[0], [0], [-1], [0], [0], [0], [0]], dtype=np.int64)
#: bool masks: unpaced reads, admitted-but-not-delivering, live.
BOOL_COLUMNS = ("unpaced", "admitted", "live")


class EpochRows:
    """The stream rows of one epoch, as columns over live streams."""

    __slots__ = (
        "obj_base", "held_base", "next_read", "next_del", "num_tracks",
        "start", "quota", "pace_rate", "pace_base", "phase_mod",
        "phase_val", "deliv", "recon", "peak0", "peak", "unpaced",
        "admitted", "live", "streams", "size", "retired", "ungated",
        "paced", "peaks", "_ints", "_bools", "_scheduler", "_bases",
        "_deg_pairs",
    )

    obj_base: np.ndarray
    held_base: np.ndarray
    next_read: np.ndarray
    next_del: np.ndarray
    num_tracks: np.ndarray
    start: np.ndarray
    quota: np.ndarray
    pace_rate: np.ndarray
    pace_base: np.ndarray
    phase_mod: np.ndarray
    phase_val: np.ndarray
    deliv: np.ndarray
    recon: np.ndarray
    peak0: np.ndarray
    peak: np.ndarray
    unpaced: np.ndarray
    admitted: np.ndarray
    live: np.ndarray

    def __init__(self, scheduler: "CycleScheduler", live: list[Stream],
                 bases: dict[str, tuple[int, int]],
                 deg_pairs: Optional[dict[str, tuple[tuple[int, int],
                                                     ...]]] = None,
                 ) -> None:
        """Rows for the ``live`` streams at epoch entry.

        ``bases`` maps each object the epoch may read to its
        ``(position base, pointer base)`` in the flat read tables.
        ``deg_pairs`` (degraded epochs only) maps each object to the
        ``(group, acquired-at-pointer)`` pairs that predict a stream's
        parity buffer at write-back.
        """
        self._scheduler = scheduler
        self._bases = bases
        self._deg_pairs = deg_pairs
        #: The Stream behind each row, in row order.
        self.streams: list[Stream] = []
        self.size = 0
        #: Completed rows not yet written back and compacted away.
        self.retired = 0
        #: True while every row reads every cycle (no phase gate).
        self.ungated = True
        #: True once any row paces its reads on the delivery schedule.
        self.paced = False
        #: stream id -> raised buffer peak, for ``tracker.fold_epoch``.
        self.peaks: dict[int, int] = {}
        self._ints = np.zeros((len(INT_COLUMNS), len(live)), dtype=np.int64)
        self._bools = np.zeros((len(BOOL_COLUMNS), len(live)), dtype=bool)
        self._fill(live, fresh=False)

    def add(self, streams: list[Stream]) -> None:
        """Append just-admitted streams (read pointer 0, not started)."""
        if streams:
            self._fill(streams, fresh=True)

    def _fill(self, streams: list[Stream], fresh: bool) -> None:
        lo = self.size
        hi = lo + len(streams)
        if hi > self._ints.shape[1]:
            self._grow(max(2 * self._ints.shape[1], hi))
        ints = self._ints
        bools = self._bools
        scheduler = self._scheduler
        bases = self._bases
        gate = scheduler._ff_gate_params
        k_prime = scheduler.config.k_prime
        quota = (None if scheduler._base_quota
                 else scheduler.deliveries_per_cycle)
        ints[:STATIC_COLUMNS, lo:hi] = np.array(
            [bases[s.object.name]
             + (s.num_tracks,
                k_prime * s.rate if quota is None else quota(s))
             + gate(s) for s in streams],
            dtype=np.int64).reshape(-1, STATIC_COLUMNS).T
        if fresh:
            ints[STATIC_COLUMNS:, lo:hi] = FRESH_STATE
            bools[1:, lo:hi] = True
        else:
            stream_peak = scheduler.tracker.stream_peak
            ints[STATIC_COLUMNS:, lo:hi] = np.array(
                [(s.next_read_track, s.next_delivery_track,
                  -1 if s.delivery_start_cycle is None
                  else s.delivery_start_cycle, 0, 0,
                  stream_peak(s.stream_id), stream_peak(s.stream_id))
                 for s in streams], dtype=np.int64).reshape(
                    -1, len(INT_COLUMNS) - STATIC_COLUMNS).T
            bools[1, lo:hi] = [s.status is StreamStatus.ADMITTED
                               for s in streams]
            bools[2, lo:hi] = True
        pace_rate = ints[4, lo:hi]
        bools[0, lo:hi] = pace_rate == 0
        if self.ungated and bool((ints[6, lo:hi] != 1).any()):
            self.ungated = False
        if not self.paced and bool(pace_rate.any()):
            self.paced = True
        self.streams.extend(streams)
        self.size = hi
        self._cut_views()

    def _grow(self, cap: int) -> None:
        size = self.size
        ints = np.zeros((len(INT_COLUMNS), cap), dtype=np.int64)
        ints[:, :size] = self._ints[:, :size]
        bools = np.zeros((len(BOOL_COLUMNS), cap), dtype=bool)
        bools[:, :size] = self._bools[:, :size]
        self._ints = ints
        self._bools = bools

    def _cut_views(self) -> None:
        size = self.size
        for row, name in enumerate(INT_COLUMNS):
            setattr(self, name, self._ints[row, :size])
        for row, name in enumerate(BOOL_COLUMNS):
            setattr(self, name, self._bools[row, :size])

    def retire(self, finished: np.ndarray) -> None:
        """Count rows that completed this cycle; compact at half dead."""
        self.retired += len(finished)
        if self.retired * 2 >= self.size:
            self._compact()

    def _compact(self) -> None:
        live = self.live
        self._write_back(np.flatnonzero(~live))
        keep = np.flatnonzero(live)
        kept = len(keep)
        self._ints[:, :kept] = self._ints[:, keep]
        self._bools[:, :kept] = self._bools[:, keep]
        streams = self.streams
        self.streams = [streams[i] for i in keep.tolist()]
        self.size = kept
        self.retired = 0
        self._cut_views()

    def close(self) -> dict[int, int]:
        """Write every remaining row back; returns the raised peaks."""
        self._write_back(np.arange(self.size))
        return self.peaks

    def _write_back(self, rows: np.ndarray) -> None:
        """The epoch's state back onto the rows' Stream objects."""
        if not len(rows):
            return
        streams = self.streams
        deg_pairs = self._deg_pairs
        scheduler = self._scheduler
        sync = (scheduler._ff_degraded_sync_stream
                if deg_pairs is not None else None)
        stripe = scheduler._stripe
        admitted_status = StreamStatus.ADMITTED
        for i, read, deliv_ptr, delivered, rebuilt, start, admitted, live \
                in zip(rows.tolist(), self.next_read[rows].tolist(),
                       self.next_del[rows].tolist(),
                       self.deliv[rows].tolist(),
                       self.recon[rows].tolist(),
                       self.start[rows].tolist(),
                       self.admitted[rows].tolist(),
                       self.live[rows].tolist()):
            stream = streams[i]
            stream.next_read_track = read
            stream.next_delivery_track = deliv_ptr
            stream.delivered_tracks += delivered
            stream.reconstructed_tracks += rebuilt
            if stream.delivery_start_cycle is None and start >= 0:
                stream.delivery_start_cycle = start
            if stream.status is admitted_status and not admitted:
                stream.activate()
            if live:
                stream.buffer = dict.fromkeys(range(deliv_ptr, read),
                                              META_PAYLOAD)
                if deg_pairs is not None:
                    floor = deliv_ptr // stripe
                    stream.parity_buffer = {
                        g: META_PAYLOAD
                        for g, acquired in deg_pairs[stream.object.name]
                        if acquired <= read and g >= floor}
            else:
                stream.complete()
            if sync is not None:
                sync(stream)
        raised = rows[self.peak[rows] > self.peak0[rows]]
        peaks = self.peaks
        for i, peak in zip(raised.tolist(), self.peak[raised].tolist()):
            peaks[streams[i].stream_id] = peak

    # -- the per-cycle stage ---------------------------------------------------

    def stage(self, cycle: int, divisor: int,
              ) -> tuple[Optional[str], np.ndarray, np.ndarray, np.ndarray]:
        """Stage one cycle without mutating anything.

        Returns ``(bail, due, reading, idx)``: tracks due for delivery
        per row, the rows that read this cycle, and each reading row's
        read-table position (0 elsewhere).  ``bail`` names the reason
        the cycle cannot be modelled (an imminent hiccup, or a mid-group
        read pointer the scalar planner raises on), else None.
        """
        live = self.live
        next_read = self.next_read
        next_del = self.next_del
        start = self.start
        started = live & (start >= 0) & (start <= cycle)
        due = np.where(started,
                       np.minimum(self.quota, self.num_tracks - next_del), 0)
        if bool((due > next_read - next_del).any()):
            return "imminent-hiccup", due, due, due
        reading = live & (next_read < self.num_tracks)
        if not self.ungated:
            reading &= (cycle % self.phase_mod) == self.phase_val
        if self.paced:
            reading &= self.unpaced | (
                next_read < (cycle + 1 - self.pace_base) * self.pace_rate)
        if divisor > 1 \
                and bool((reading & (next_read % divisor != 0)).any()):
            return "mid-group-pointer", due, reading, due
        idx = np.where(reading, self.obj_base + next_read // divisor, 0)
        return None, due, reading, idx

    def commit(self, cycle: int, due: np.ndarray, reading: np.ndarray,
               idx: np.ndarray, data_reads: np.ndarray,
               next_pointers: np.ndarray) -> tuple[int, np.ndarray]:
        """Commit a staged cycle.

        ``data_reads`` is each row's data-read count this cycle: a row
        starts its delivery clock on its first cycle with a data read.
        Returns ``(rows that began delivering, rows that completed)``.
        """
        newly = self.admitted & (due > 0)
        began = int(np.count_nonzero(newly))
        if began:
            self.admitted &= ~newly
        first_read = (self.start < 0) & (data_reads > 0)
        if bool(first_read.any()):
            self.start[first_read] = cycle + 1
        self.next_del += due
        self.deliv += due
        np.copyto(self.next_read, next_pointers[idx], where=reading)
        finished = np.flatnonzero(self.live
                                  & (self.next_del >= self.num_tracks))
        if len(finished):
            self.live[finished] = False
        return began, finished
