"""Per-disk per-cycle slot arbitration.

Each disk can serve a bounded number of track reads in one cycle
(``SchedulerConfig.slots_per_disk``).  The slot table takes the cycle's
planned reads and decides which execute and which are *dropped*:

* reads aimed at a failed disk never execute (the planner should not emit
  them; they are returned as failed-disk drops so bugs surface in metrics);
* within a disk, recovery reads beat normal reads (Section 4's "drop some
  of the local requests in favor of reading the parity blocks");
* ties break by planning order, keeping the simulation deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.disk.drive import DiskArray
from repro.sched.plan import PRIORITY, PlannedRead, ReadPurpose


class SlotTable:
    """Arbitrates one cycle's reads against per-disk slot budgets."""

    __slots__ = ("array", "slots_per_disk")

    def __init__(self, array: DiskArray, slots_per_disk: int) -> None:
        if slots_per_disk < 1:
            raise ValueError(
                f"slots per disk must be >= 1, got {slots_per_disk}"
            )
        self.array = array
        self.slots_per_disk = slots_per_disk

    def resolve(self, plans: Sequence[PlannedRead],
                ) -> tuple[list[PlannedRead], list[PlannedRead]]:
        """Partition ``plans`` into (executed, dropped).

        Preserves planning order within each outcome list.
        """
        # Fast path: every touched disk is up, at full speed, and under
        # budget — all plans execute, nothing is dropped, no per-disk
        # ranking is needed.  This is the overwhelmingly common
        # healthy-cycle case; it only counts loads.
        slots = self.slots_per_disk
        array = self.array
        counts: dict[int, int] = {}
        over_budget = False
        for plan in plans:
            disk_id = plan.disk_id
            load = counts.get(disk_id, 0) + 1
            counts[disk_id] = load
            if load > slots:
                over_budget = True
        if not over_budget and not any(
                array[disk_id].is_failed
                or array[disk_id].service_fraction < 1.0
                for disk_id in counts):
            plans = plans if type(plans) is list else list(plans)
            return plans, []
        # Contended disks — failed, or holding more plans than their
        # (fail-slow-shrunk) budget — get per-class quotas; a failed
        # disk's budget is zero.  Each quota starts as the disk's demand
        # per class, counting every plan NORMAL but the few that are not.
        normal = ReadPurpose.NORMAL
        quotas: dict[int, list[int]] = {}
        budgets: dict[int, int] = {}
        for disk_id, load in counts.items():
            disk = array[disk_id]
            budget = 0 if disk.is_failed else disk.effective_slots(slots)
            if load > budget:
                quotas[disk_id] = [0, load, 0]
                budgets[disk_id] = budget
        for plan in [p for p in plans if p.purpose is not normal]:
            quota = quotas.get(plan.disk_id)
            if quota is not None:
                quota[1] -= 1
                quota[PRIORITY[plan.purpose]] += 1
        # The budget goes to RECOVERY, then NORMAL, then OPPORTUNISTIC.
        for disk_id, quota in quotas.items():
            budget = budgets[disk_id]
            for rank, wanting in enumerate(quota):
                quota[rank] = granted = min(wanting, budget)
                budget -= granted
        # One pass in planning order: within a class the first plans win
        # the quota, and both outputs come out in planning order.
        executed: list[PlannedRead] = []
        dropped: list[PlannedRead] = []
        for plan in plans:
            quota = quotas.get(plan.disk_id)
            if quota is None:
                executed.append(plan)
                continue
            purpose = plan.purpose
            rank = 1 if purpose is normal else PRIORITY[purpose]
            if quota[rank]:
                quota[rank] -= 1
                executed.append(plan)
            else:
                dropped.append(plan)
        return executed, dropped

    def load(self, plans: Iterable[PlannedRead]) -> dict[int, int]:
        """Reads per disk implied by a plan list (diagnostics)."""
        loads: dict[int, int] = {}
        for plan in plans:
            loads[plan.disk_id] = loads.get(plan.disk_id, 0) + 1
        return loads

    def idle_slots(self, plans: Iterable[PlannedRead]) -> dict[int, int]:
        """Free slots per operational disk under a plan list.

        Fail-slow drives expose their *effective* budget, so rebuild and
        media-recovery traffic cannot overdrive a throttled disk.
        """
        loads = self.load(plans)
        return {
            disk.disk_id: disk.effective_slots(self.slots_per_disk)
            - loads.get(disk.disk_id, 0)
            for disk in self.array if not disk.is_failed
        }
