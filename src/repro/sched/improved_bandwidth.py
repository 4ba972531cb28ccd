"""The Improved-bandwidth scheduler (Section 4, Figure 8).

Normal mode is Streaming-RAID-like — each stream reads its whole next
parity group's *data* blocks every cycle — but on the shifted layout, so
every disk serves data and no bandwidth idles in reserve (beyond the
admission headroom of ``K_IB`` disks).

When a disk fails, groups with a block on it read their parity block from
the *next* cluster instead.  Those parity reads land on disks that already
carry their own data load; a disk with no idle slot "drops some of the
local requests in favor of reading the parity blocks", and each dropped
local read is treated as a partial failure whose group in turn reads *its*
parity from the cluster one further right — the shift-to-the-right cascade.
If the cascade finds no idle capacity anywhere, a request must be
terminated: degradation of service.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import CycleScheduler
from repro.sched.plan import PlannedRead, ReadKind, ReadPurpose
from repro.server.metrics import CycleReport, HiccupCause
from repro.server.stream import Stream


class ImprovedBandwidthScheduler(CycleScheduler):
    """SR-style group reads on the shifted layout, with the parity cascade.

    ``proactive_parity`` enables Section 4's "sophisticated scheduler":
    parity blocks are also fetched in normal mode, but *opportunistically*
    — they yield slot contention to all scheduled work, so under light
    load a mid-cycle failure can be masked (the parity is already in
    memory) while under heavy load they silently drop and cost nothing.

    ``mirror_read_balance`` implements footnote 11's C = 2 special case:
    the "parity" block *is* a second copy of the data, so normal-mode
    reads can be served from either copy, balancing load and roughly
    doubling the read capacity — at the price the footnote warns about:
    after a failure, the surviving copy carries both halves of the load
    and "some streams would have to be dropped".
    """

    __slots__ = ("proactive_parity", "mirror_read_balance")

    def __init__(self, *args: Any, proactive_parity: bool = False,
                 mirror_read_balance: bool = False,
                 **kwargs: Any) -> None:
        # Set before super().__init__: the admission bound consults them.
        self.proactive_parity = proactive_parity
        self.mirror_read_balance = mirror_read_balance
        super().__init__(*args, **kwargs)
        if mirror_read_balance and self.config.parity_group_size != 2:
            raise ConfigurationError(
                "mirror read balancing needs C = 2 (footnote 11): the "
                "parity block is only a usable replica when groups hold "
                "a single data block"
            )

    def _slot_based_stream_bound(self) -> int:
        bound = super()._slot_based_stream_bound()
        if self.mirror_read_balance:
            # Two copies of every block: each disk carries half the reads.
            return 2 * bound
        return bound

    def _fast_forward_ready(self) -> bool:
        """Veto when normal-mode cycles do more than the plain group walk:
        opportunistic parity prefetches and mirrored-read balancing both
        plan extra reads even with every disk up."""
        return not self.proactive_parity and not self.mirror_read_balance

    def _capacity_penalty(self) -> int:
        """Reserve consumption: failures beyond ``K_IB`` cost capacity.

        The scheme holds the bandwidth of ``K_IB`` disks idle precisely to
        absorb failures (Section 4), so the first ``reserve_k`` concurrent
        failures are free; each one beyond the reserve charges one disk's
        share of the stream bound, shrinking admission before the
        shift-right cascade starts terminating streams mid-play.
        """
        excess = len(self.array.failed_ids) - self.config.params.reserve_k
        if excess <= 0:
            return 0
        per_disk_share = max(1, self.admission_limit // len(self.array))
        return excess * per_disk_share

    def plan_reads(self, cycle: int) -> list[PlannedRead]:
        """Group data reads per stream; parity only for failure-hit groups
        (plus opportunistic prefetches when enabled)."""
        plans: list[PlannedRead] = []
        # Direct table iteration: no per-cycle snapshot list (churn path).
        for stream in self.streams.values():
            if not stream.is_active:
                continue
            for _ in range(stream.rate):
                if not stream.reads_remaining:
                    break
                self._plan_stream_group(stream, plans)
        return plans

    def _plan_stream_group(self, stream: Stream,
                           plans: list[PlannedRead]) -> None:
        if self.mirror_read_balance:
            self._plan_mirrored_track(stream, plans)
            return
        # Data reads only in normal mode; groups touching a failed disk
        # get their parity read planned up front, with their surviving
        # data reads elevated so the group cannot lose a second block.
        name = stream.object.name
        group = stream.next_read_track // self._stripe
        entry = self._group_plan(name, group)
        group_hit = entry.failed_members > 0
        purpose = (ReadPurpose.RECOVERY if group_hit
                   else ReadPurpose.NORMAL)
        self._plan_group_read(stream, plans, include_parity=group_hit,
                              data_purpose=purpose)
        if self.proactive_parity and not group_hit \
                and entry.parity is not None:
            plans.append(PlannedRead(
                disk_id=entry.parity[0],
                position=entry.parity[1],
                stream_id=stream.stream_id,
                object_name=name,
                kind=ReadKind.PARITY,
                index=group,
                purpose=ReadPurpose.OPPORTUNISTIC,
            ))

    def _plan_mirrored_track(self, stream: Stream,
                             plans: list[PlannedRead]) -> None:
        """Footnote 11: read the track from whichever copy balances load.

        At C = 2 each group is one track plus its mirror (the "parity"
        block has identical bytes).  The copy is chosen by a deterministic
        coin (stream id + group parity); a failed copy routes to its twin,
        whose overload then surfaces as slot drops — the footnote's
        dropped streams.
        """
        name = stream.object.name
        track = stream.next_read_track
        group = track // self._stripe
        primary = self.layout.data_address(name, track)
        mirror = self.layout.parity_address(name, group)
        # The coin must decorrelate from the disk walk: successive groups
        # already alternate disk parity, so flipping the copy every group
        # would lock each stream onto one parity class.  Flipping every
        # *two* groups spreads reads over all four residues.
        prefer_mirror = (stream.stream_id + group // 2) % 2 == 1
        first, second = ((mirror, primary) if prefer_mirror
                         else (primary, mirror))
        if self.array[first.disk_id].is_failed:
            first, second = second, first
        if self.array[first.disk_id].is_failed:
            # Both copies down: the track is lost (catastrophic pair).
            self._mark_lost([(stream.stream_id, track)],
                            HiccupCause.DISK_FAILURE)
            stream.next_read_track = track + 1
            return
        plans.append(PlannedRead(
            disk_id=first.disk_id,
            position=first.position,
            stream_id=stream.stream_id,
            object_name=name,
            kind=ReadKind.DATA,
            index=track,
            purpose=ReadPurpose.NORMAL,
        ))
        stream.next_read_track = track + 1

    def resolve_plans(self, plans: list[PlannedRead], report: CycleReport,
                      ) -> tuple[list[PlannedRead], list[PlannedRead]]:
        """Slot arbitration with the shift-to-the-right cascade.

        Iterates: resolve; every *normal* data read that lost its slot
        turns its parity group into a "protected" group — the lost block
        will be reconstructed, so the group's surviving data reads become
        recovery-priority and a parity read is added on the next cluster.
        Repeats until no new drops appear (bounded by the group count).
        A recovery read that still cannot be placed means the cascade found
        no idle capacity: the stream is terminated (degradation of
        service).
        """
        work = list(plans)
        removed: list[PlannedRead] = []          # reads replaced by parity
        protected: set[tuple[int, int]] = set()  # (stream_id, group)
        for _ in range(len(plans) + 1):
            executed, dropped = self.slot_table.resolve(work)
            overflow = [p for p in dropped
                        if not self.array[p.disk_id].is_failed]
            if not overflow:
                return executed, removed
            progressed = False
            for plan in overflow:
                key = self._group_key(plan)
                if plan.purpose is ReadPurpose.OPPORTUNISTIC:
                    # Nice-to-have prefetches drop freely under load.
                    work = [p for p in work if p is not plan]
                    progressed = True
                elif plan.purpose is ReadPurpose.NORMAL \
                        and plan.kind is ReadKind.DATA \
                        and key not in protected:
                    # Partial failure: reconstruct this block via parity
                    # one cluster to the right.
                    protected.add(key)
                    work = self._protect_group(work, plan, key)
                    removed.append(plan)
                    progressed = True
                else:
                    # A recovery read lost contention: no idle capacity in
                    # the chain — degradation of service.
                    self._degrade(plan, work, report)
                    work = [p for p in work
                            if p.stream_id != plan.stream_id]
                    progressed = True
            if not progressed:  # pragma: no cover - defensive
                break
        raise SimulationError("shift-right cascade failed to converge")

    def _group_key(self, plan: PlannedRead) -> tuple[int, int]:
        if plan.kind is ReadKind.PARITY:
            return (plan.stream_id, plan.index)
        return (plan.stream_id, plan.index // self._stripe)

    def _protect_group(self, work: list[PlannedRead], dropped: PlannedRead,
                       key: tuple[int, int]) -> list[PlannedRead]:
        """Replace a dropped data read with a parity read; elevate the rest."""
        stream_id, group = key
        parity_address = self.layout.parity_address(dropped.object_name,
                                                    group)
        updated: list[PlannedRead] = []
        for plan in work:
            if plan is dropped:
                continue  # the block will be reconstructed instead
            if self._group_key(plan) == key \
                    and plan.purpose is ReadPurpose.NORMAL:
                plan = PlannedRead(
                    disk_id=plan.disk_id, position=plan.position,
                    stream_id=plan.stream_id, object_name=plan.object_name,
                    kind=plan.kind, index=plan.index,
                    purpose=ReadPurpose.RECOVERY,
                )
            updated.append(plan)
        if self.array[parity_address.disk_id].is_failed:
            # Parity unavailable too: the block is simply lost.
            self._mark_lost([(stream_id, dropped.index)],
                            HiccupCause.DISK_FAILURE)
            return updated
        updated.append(PlannedRead(
            disk_id=parity_address.disk_id,
            position=parity_address.position,
            stream_id=stream_id,
            object_name=dropped.object_name,
            kind=ReadKind.PARITY,
            index=group,
            purpose=ReadPurpose.RECOVERY,
        ))
        return updated

    def _degrade(self, plan: PlannedRead, work: list[PlannedRead],
                 report: CycleReport) -> None:
        """Terminate the stream that the cascade could not serve."""
        stream = self.streams.get(plan.stream_id)
        if stream is not None and stream.is_active:
            self.terminate_stream(plan.stream_id)

    def _handle_dropped(self, dropped: list[PlannedRead],
                        report: CycleReport) -> None:
        """Cascade-replaced reads are expected, not lost.

        Each dropped data read's group has a parity read planned, so the
        block is reconstructed at the end of the cycle; if reconstruction
        nevertheless fails, the delivery phase records the hiccup with a
        disk-failure/transition cause.
        """
