"""Delivery metrics: hiccups, reconstructions, buffer profiles, reports.

A *hiccup* (Section 1) is a missed track at its delivery deadline.  The
metrics layer records every hiccup with its cause so tests can check the
paper's transition-loss formulas, and samples buffer occupancy each cycle
so the staggered-group memory profile (Figure 4) can be regenerated.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional


class HiccupCause(enum.Enum):
    """Why a track missed its delivery deadline."""

    DISK_FAILURE = "disk-failure"          # data was on a failed disk
    TRANSITION = "transition"              # displaced by a degraded-mode shift
    SLOT_OVERFLOW = "slot-overflow"        # dropped: no disk slot in the cycle
    MID_CYCLE_FAILURE = "mid-cycle-failure"  # IB: failure during the read
    BUFFER_EXHAUSTED = "buffer-exhausted"  # NC: buffer pool empty
    MEDIA_ERROR = "media-error"            # latent sector error not recovered
    DATA_LOSS = "data-loss"                # track lost to a double failure


class HiccupRecord(NamedTuple):
    """One missed track.

    A named tuple rather than a frozen dataclass: overloaded runs record
    tens of thousands of these, and a tuple is cheaper to build, to hold
    and to ship between processes.
    """

    cycle: int
    stream_id: int
    object_name: str
    track: int
    cause: HiccupCause


@dataclass(frozen=True)
class DataLossEvent:
    """A failure set crossed into data loss (MTTDS accounting).

    Recorded when a fail/repair transition changes the set of tracks that
    no surviving disk or parity block can reproduce: exactly which tracks
    of which objects are gone, and which streams were shed because their
    remaining playback crossed a lost track.  An empty ``lost_tracks``
    marks the recovery event (a repair brought every track back).
    """

    cycle: int
    failed_disks: tuple[int, ...]
    #: object name -> newly lost track numbers, ascending.
    lost_tracks: dict[str, tuple[int, ...]]
    shed_streams: tuple[int, ...]

    @property
    def total_lost_tracks(self) -> int:
        """Tracks newly lost in this event."""
        return sum(len(tracks) for tracks in self.lost_tracks.values())


@dataclass
class CycleReport:
    """What happened during one cycle."""

    cycle: int
    reads_planned: int = 0
    reads_executed: int = 0
    reads_dropped: int = 0
    parity_reads: int = 0
    tracks_delivered: int = 0
    reconstructions: int = 0
    blocks_rebuilt: int = 0
    hiccups: list[HiccupRecord] = field(default_factory=list)
    buffered_tracks: int = 0
    pool_tracks_in_use: int = 0
    streams_active: int = 0
    streams_terminated: int = 0
    media_errors: int = 0
    media_retries: int = 0
    media_reconstructions: int = 0
    media_recovery_reads: int = 0
    streams_shed: int = 0

    def __getstate__(self) -> dict[str, Any]:
        # Hiccups cross a process boundary as plain tuples: pickle then
        # writes no class reference per record.
        if not self.hiccups:
            return self.__dict__
        state = dict(self.__dict__)
        state["hiccups"] = [tuple(record) for record in self.hiccups]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        if self.hiccups:
            self.hiccups = list(map(HiccupRecord._make, self.hiccups))


@dataclass
class MetricsReducer:
    """Streaming fold of cycle reports: run totals in O(1) memory.

    Long steady-state runs (hundreds of thousands of cycles at paper
    scale) cannot afford an unbounded ``SimulationReport.cycles`` list.
    The reducer absorbs each finished :class:`CycleReport` into flat
    aggregate counters as it is recorded, so a bounded-tail report can
    discard old cycle objects while every ``total_*`` aggregate stays
    exact over the *whole* run.
    """

    cycles_seen: int = 0
    reads_planned: int = 0
    reads_executed: int = 0
    reads_dropped: int = 0
    parity_reads: int = 0
    tracks_delivered: int = 0
    reconstructions: int = 0
    blocks_rebuilt: int = 0
    hiccups: int = 0
    hiccup_counts: dict[HiccupCause, int] = field(default_factory=dict)
    peak_buffered_tracks: int = 0
    media_errors: int = 0
    media_retries: int = 0
    media_reconstructions: int = 0
    media_recovery_reads: int = 0
    streams_shed: int = 0

    def fold(self, report: CycleReport) -> None:
        """Absorb one finished cycle into the aggregates."""
        self.cycles_seen += 1
        self.reads_planned += report.reads_planned
        self.reads_executed += report.reads_executed
        self.reads_dropped += report.reads_dropped
        self.parity_reads += report.parity_reads
        self.tracks_delivered += report.tracks_delivered
        self.reconstructions += report.reconstructions
        self.blocks_rebuilt += report.blocks_rebuilt
        if report.hiccups:
            self.hiccups += len(report.hiccups)
            for record in report.hiccups:
                self.hiccup_counts[record.cause] = \
                    self.hiccup_counts.get(record.cause, 0) + 1
        if report.buffered_tracks > self.peak_buffered_tracks:
            self.peak_buffered_tracks = report.buffered_tracks
        self.media_errors += report.media_errors
        self.media_retries += report.media_retries
        self.media_reconstructions += report.media_reconstructions
        self.media_recovery_reads += report.media_recovery_reads
        self.streams_shed += report.streams_shed

    def merge(self, other: "MetricsReducer") -> None:
        """Absorb another reducer's aggregates (disjoint-server fold).

        The cross-shard counterpart of :meth:`fold`: every additive
        ``total_*`` source stays exact under the merge, and the peak
        buffer is the max of the two peaks (shards do not share buffer
        pools, so a cluster-wide simultaneous peak is not observable —
        the per-shard max is the honest bound).  ``cycles_seen`` adds:
        for a cluster it counts *server-cycles*, N shards running the
        same wall-clock cycle contribute N.
        """
        self.cycles_seen += other.cycles_seen
        self.reads_planned += other.reads_planned
        self.reads_executed += other.reads_executed
        self.reads_dropped += other.reads_dropped
        self.parity_reads += other.parity_reads
        self.tracks_delivered += other.tracks_delivered
        self.reconstructions += other.reconstructions
        self.blocks_rebuilt += other.blocks_rebuilt
        self.hiccups += other.hiccups
        for cause, count in other.hiccup_counts.items():
            self.hiccup_counts[cause] = \
                self.hiccup_counts.get(cause, 0) + count
        if other.peak_buffered_tracks > self.peak_buffered_tracks:
            self.peak_buffered_tracks = other.peak_buffered_tracks
        self.media_errors += other.media_errors
        self.media_retries += other.media_retries
        self.media_reconstructions += other.media_reconstructions
        self.media_recovery_reads += other.media_recovery_reads
        self.streams_shed += other.streams_shed


@dataclass
class SimulationReport:
    """Accumulated results of a simulation run.

    By default every :class:`CycleReport` is retained, so per-cycle
    inspection (``cycles[-1]``, :meth:`buffer_profile`, ...) works over
    the whole run.  With ``tail`` set, only the most recent ``tail``
    cycle objects are kept and a :class:`MetricsReducer` maintains the
    run-wide aggregates — memory stays bounded on arbitrarily long runs
    while every ``total_*`` property remains exact.
    """

    cycles: list[CycleReport] = field(default_factory=list)
    payload_mismatches: int = 0
    #: Every crossing into (or out of) data loss, in event order.
    data_loss_events: list[DataLossEvent] = field(default_factory=list)
    #: Cycle objects to retain (None: unbounded, the default).
    tail: Optional[int] = None
    #: Streaming aggregates; created on first record when ``tail`` is set.
    reducer: Optional[MetricsReducer] = None
    #: Cycles advanced by a fast-forward engine (diagnostic; deliberately
    #: outside :meth:`to_rows`/:meth:`summary` so fast and scalar runs
    #: stay fingerprint-identical).
    ff_engaged_cycles: int = 0
    #: Why the fast path declined or bailed, reason -> event count.
    #: Event-granular, not cycle-granular: one entry per engine entry
    #: that was refused plus one per in-epoch bail.
    ff_disengagements: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tail is not None and self.tail < 0:
            raise ValueError(f"tail must be >= 0, got {self.tail}")

    def record(self, cycle_report: CycleReport) -> None:
        """Append one finished cycle (folding + trimming in tail mode)."""
        if self.tail is not None:
            if self.reducer is None:
                self.reducer = MetricsReducer()
            self.reducer.fold(cycle_report)
            self.cycles.append(cycle_report)
            excess = len(self.cycles) - self.tail
            if excess > 0:
                del self.cycles[:excess]
            return
        self.cycles.append(cycle_report)

    # -- cross-server merge ---------------------------------------------------

    def _whole_run_reducer(self) -> MetricsReducer:
        """A fresh reducer covering this report's *whole* run.

        In tail mode the streaming reducer already holds the run-wide
        aggregates (copied, so the merge never mutates an input); with
        no tail the retained cycles are the complete run and folding
        them reproduces the same aggregates exactly.
        """
        reducer = MetricsReducer()
        if self.reducer is not None:
            reducer.merge(self.reducer)
            return reducer
        for cycle_report in self.cycles:
            reducer.fold(cycle_report)
        return reducer

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        """Fold two reports from *disjoint* servers into a new report.

        Built for cluster aggregation: the two servers simulated
        separate disk farms over (typically) the same cycle range, so
        retained cycles interleave by cycle index (stable — ``self``'s
        cycle first on ties) and equal indices are expected, meaning
        *server-cycles* rather than wall-clock cycles.  Neither input is
        mutated.

        Every ``total_*`` aggregate stays exact regardless of tail
        modes: if either side bounds its tail, the merged report keeps a
        run-wide :class:`MetricsReducer` (merged from each side's whole
        run) and bounds its retained cycles to the smaller tail;
        otherwise both cycle lists are complete and plain summation
        remains exact.
        """
        tails = [t for t in (self.tail, other.tail) if t is not None]
        tail = min(tails) if tails else None
        cycles = list(heapq.merge(self.cycles, other.cycles,
                                  key=lambda report: report.cycle))
        if tail is not None:
            cycles = cycles[len(cycles) - tail:] if tail else []
        merged = SimulationReport(
            cycles=cycles,
            payload_mismatches=(self.payload_mismatches
                                + other.payload_mismatches),
            data_loss_events=sorted(
                self.data_loss_events + other.data_loss_events,
                key=lambda event: event.cycle),
            tail=tail,
        )
        if tail is not None:
            reducer = self._whole_run_reducer()
            reducer.merge(other._whole_run_reducer())
            merged.reducer = reducer
        merged.ff_engaged_cycles = (self.ff_engaged_cycles
                                    + other.ff_engaged_cycles)
        for reason, count in (*self.ff_disengagements.items(),
                              *other.ff_disengagements.items()):
            merged.ff_disengagements[reason] = \
                merged.ff_disengagements.get(reason, 0) + count
        return merged

    # -- aggregates -----------------------------------------------------------

    @property
    def total_delivered(self) -> int:
        """Tracks delivered over the whole run."""
        if self.reducer is not None:
            return self.reducer.tracks_delivered
        return sum(c.tracks_delivered for c in self.cycles)

    @property
    def total_hiccups(self) -> int:
        """Missed tracks over the whole run."""
        if self.reducer is not None:
            return self.reducer.hiccups
        return sum(len(c.hiccups) for c in self.cycles)

    @property
    def total_reconstructions(self) -> int:
        """Tracks rebuilt on-the-fly from parity."""
        if self.reducer is not None:
            return self.reducer.reconstructions
        return sum(c.reconstructions for c in self.cycles)

    @property
    def total_parity_reads(self) -> int:
        """Parity blocks fetched."""
        if self.reducer is not None:
            return self.reducer.parity_reads
        return sum(c.parity_reads for c in self.cycles)

    @property
    def total_dropped_reads(self) -> int:
        """Reads displaced by slot overflow."""
        if self.reducer is not None:
            return self.reducer.reads_dropped
        return sum(c.reads_dropped for c in self.cycles)

    @property
    def total_media_errors(self) -> int:
        """Media-error read outcomes observed."""
        if self.reducer is not None:
            return self.reducer.media_errors
        return sum(c.media_errors for c in self.cycles)

    @property
    def total_media_retries(self) -> int:
        """Transient media errors recovered by an in-cycle retry."""
        if self.reducer is not None:
            return self.reducer.media_retries
        return sum(c.media_retries for c in self.cycles)

    @property
    def total_media_reconstructions(self) -> int:
        """Tracks recovered from latent errors via per-track parity."""
        if self.reducer is not None:
            return self.reducer.media_reconstructions
        return sum(c.media_reconstructions for c in self.cycles)

    @property
    def total_streams_shed(self) -> int:
        """Streams terminated by data loss or degraded-capacity shedding."""
        if self.reducer is not None:
            return self.reducer.streams_shed
        return sum(c.streams_shed for c in self.cycles)

    @property
    def total_lost_tracks(self) -> int:
        """Tracks lost across every data-loss event."""
        return sum(e.total_lost_tracks for e in self.data_loss_events)

    def all_hiccups(self) -> list[HiccupRecord]:
        """Every retained hiccup in cycle order.

        In tail mode only the retained cycles' records are available;
        :meth:`hiccups_by_cause` and :attr:`total_hiccups` still cover
        the whole run via the reducer.
        """
        return [h for c in self.cycles for h in c.hiccups]

    def hiccups_by_cause(self) -> dict[HiccupCause, int]:
        """Hiccup counts per cause (run-wide, even in tail mode)."""
        if self.reducer is not None:
            return dict(self.reducer.hiccup_counts)
        counts: dict[HiccupCause, int] = {}
        for record in self.all_hiccups():
            counts[record.cause] = counts.get(record.cause, 0) + 1
        return counts

    def buffer_profile(self) -> list[tuple[int, int]]:
        """(cycle, buffered tracks) samples — Figure 4's sawtooth.

        Covers the retained cycles only when a ``tail`` is set.
        """
        return [(c.cycle, c.buffered_tracks) for c in self.cycles]

    @property
    def peak_buffered_tracks(self) -> int:
        """Maximum simultaneous track buffers observed."""
        if self.reducer is not None:
            return self.reducer.peak_buffered_tracks
        return max((c.buffered_tracks for c in self.cycles), default=0)

    def hiccup_free(self) -> bool:
        """True if no track ever missed its deadline."""
        return self.total_hiccups == 0

    def ff_residency(self) -> float:
        """Fraction of the run's cycles advanced by a fast-forward engine.

        Benchmarks and chaos campaigns assert on this instead of (only)
        wall-clock: a perf regression that silently drops the fast path
        shows up here even on machines too fast to trip a time gate.
        """
        total = (self.reducer.cycles_seen if self.reducer is not None
                 else len(self.cycles))
        return self.ff_engaged_cycles / total if total else 0.0

    def to_rows(self) -> list[dict[str, int]]:
        """Per-cycle metrics as flat dicts (CSV/DataFrame-friendly)."""
        return [
            {
                "cycle": c.cycle,
                "reads_planned": c.reads_planned,
                "reads_executed": c.reads_executed,
                "reads_dropped": c.reads_dropped,
                "parity_reads": c.parity_reads,
                "tracks_delivered": c.tracks_delivered,
                "reconstructions": c.reconstructions,
                "blocks_rebuilt": c.blocks_rebuilt,
                "hiccups": len(c.hiccups),
                "buffered_tracks": c.buffered_tracks,
                "pool_tracks_in_use": c.pool_tracks_in_use,
                "streams_active": c.streams_active,
                "streams_terminated": c.streams_terminated,
                "media_errors": c.media_errors,
                "media_retries": c.media_retries,
                "media_reconstructions": c.media_reconstructions,
                "media_recovery_reads": c.media_recovery_reads,
                "streams_shed": c.streams_shed,
            }
            for c in self.cycles
        ]

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        causes = ", ".join(
            f"{cause.value}: {count}"
            for cause, count in sorted(self.hiccups_by_cause().items(),
                                       key=lambda item: item[0].value)
        ) or "none"
        cycle_count = (self.reducer.cycles_seen if self.reducer is not None
                       else len(self.cycles))
        text = (
            f"{cycle_count} cycles; delivered {self.total_delivered} "
            f"tracks; {self.total_hiccups} hiccups ({causes}); "
            f"{self.total_reconstructions} on-the-fly reconstructions; "
            f"peak buffer {self.peak_buffered_tracks} tracks"
        )
        if self.total_media_errors:
            text += (
                f"; {self.total_media_errors} media errors "
                f"({self.total_media_retries} retried, "
                f"{self.total_media_reconstructions} parity-rebuilt)"
            )
        if self.data_loss_events:
            text += (
                f"; {len(self.data_loss_events)} data-loss events "
                f"({self.total_lost_tracks} tracks lost, "
                f"{self.total_streams_shed} streams shed)"
            )
        return text
