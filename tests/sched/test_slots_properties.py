"""Property-based tests on slot arbitration (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.disk import DiskArray, PAPER_TABLE1_DRIVE
from repro.sched import PlannedRead, ReadKind, ReadPurpose, SlotTable

NUM_DISKS = 6


@st.composite
def plan_lists(draw):
    count = draw(st.integers(min_value=0, max_value=40))
    plans = []
    for index in range(count):
        plans.append(PlannedRead(
            disk_id=draw(st.integers(min_value=0, max_value=NUM_DISKS - 1)),
            position=index,
            stream_id=draw(st.integers(min_value=0, max_value=5)),
            object_name="x",
            kind=draw(st.sampled_from(list(ReadKind))),
            index=index,
            purpose=draw(st.sampled_from(list(ReadPurpose))),
        ))
    return plans


@st.composite
def tables(draw):
    array = DiskArray(NUM_DISKS, PAPER_TABLE1_DRIVE)
    for disk_id in draw(st.sets(
            st.integers(min_value=0, max_value=NUM_DISKS - 1), max_size=3)):
        array.fail(disk_id)
    slots = draw(st.integers(min_value=1, max_value=5))
    return SlotTable(array, slots)


@settings(max_examples=80)
@given(plans=plan_lists(), table=tables())
def test_resolve_is_a_partition(plans, table):
    executed, dropped = table.resolve(plans)
    assert len(executed) + len(dropped) == len(plans)
    assert {id(p) for p in executed} | {id(p) for p in dropped} == \
        {id(p) for p in plans}
    assert {id(p) for p in executed} & {id(p) for p in dropped} == set()


@settings(max_examples=80)
@given(plans=plan_lists(), table=tables())
def test_capacity_never_exceeded(plans, table):
    executed, _dropped = table.resolve(plans)
    per_disk = {}
    for plan in executed:
        per_disk[plan.disk_id] = per_disk.get(plan.disk_id, 0) + 1
    assert all(count <= table.slots_per_disk
               for count in per_disk.values())


@settings(max_examples=80)
@given(plans=plan_lists(), table=tables())
def test_failed_disks_never_execute(plans, table):
    executed, _dropped = table.resolve(plans)
    assert all(not table.array[p.disk_id].is_failed for p in executed)


@settings(max_examples=80)
@given(plans=plan_lists(), table=tables())
def test_priority_dominance(plans, table):
    """No dropped read outranks an executed read on the same healthy disk."""
    executed, dropped = table.resolve(plans)
    for lost in dropped:
        if table.array[lost.disk_id].is_failed:
            continue
        rivals = [p for p in executed if p.disk_id == lost.disk_id]
        assert len(rivals) == table.slots_per_disk  # disk genuinely full
        assert all(p.priority <= lost.priority for p in rivals)


@settings(max_examples=80)
@given(plans=plan_lists(), table=tables())
def test_order_preserved_within_outcomes(plans, table):
    executed, dropped = table.resolve(plans)
    order = {id(p): i for i, p in enumerate(plans)}
    assert [order[id(p)] for p in executed] == \
        sorted(order[id(p)] for p in executed)
    assert [order[id(p)] for p in dropped] == \
        sorted(order[id(p)] for p in dropped)


#: The reference's own priority ranks, so the oracle does not share the
#: table the implementation reads.
REFERENCE_RANK = {ReadPurpose.RECOVERY: 0, ReadPurpose.NORMAL: 1,
                  ReadPurpose.OPPORTUNISTIC: 2}


def reference_resolve(table, plans):
    """The sort-based arbitration ``SlotTable.resolve`` used to run.

    Groups plans per disk, drops everything on a failed disk, stably
    sorts each over-budget disk's plans by priority and keeps the first
    ``effective_slots`` of them, then restores planning order in both
    outcome lists.  Kept here as the oracle for the sort-free version.
    """
    by_disk = {}
    for plan in plans:
        by_disk.setdefault(plan.disk_id, []).append(plan)
    executed, dropped = [], []
    for disk_id, disk_plans in by_disk.items():
        disk = table.array[disk_id]
        if disk.is_failed:
            dropped.extend(disk_plans)
            continue
        budget = disk.effective_slots(table.slots_per_disk)
        if len(disk_plans) <= budget:
            executed.extend(disk_plans)
            continue
        ranked = sorted(disk_plans, key=lambda p: REFERENCE_RANK[p.purpose])
        executed.extend(ranked[:budget])
        dropped.extend(ranked[budget:])
    order = {id(plan): i for i, plan in enumerate(plans)}
    executed.sort(key=lambda p: order[id(p)])
    dropped.sort(key=lambda p: order[id(p)])
    return executed, dropped


@st.composite
def faulted_tables(draw):
    """Slot tables with failed and fail-slow (throttled) disks."""
    array = DiskArray(NUM_DISKS, PAPER_TABLE1_DRIVE)
    states = draw(st.lists(
        st.sampled_from(["up", "up", "failed", 0.0, 0.2, 0.5, 0.75, 1.0]),
        min_size=NUM_DISKS, max_size=NUM_DISKS))
    for disk_id, state in enumerate(states):
        if state == "failed":
            array.fail(disk_id)
        elif state != "up":
            array.degrade(disk_id, state)
    slots = draw(st.integers(min_value=1, max_value=8))
    return SlotTable(array, slots)


@settings(max_examples=300)
@given(plans=plan_lists(), table=faulted_tables())
def test_resolve_matches_sort_based_reference(plans, table):
    """Same executed/dropped plans, by identity and in the same order."""
    executed, dropped = table.resolve(plans)
    want_executed, want_dropped = reference_resolve(table, plans)
    assert [id(p) for p in executed] == [id(p) for p in want_executed]
    assert [id(p) for p in dropped] == [id(p) for p in want_dropped]


def test_reference_covers_every_purpose_and_fault_kind():
    """A hand-built contended cycle exercising each branch at once."""
    array = DiskArray(NUM_DISKS, PAPER_TABLE1_DRIVE)
    array.fail(0)
    array.degrade(1, 0.5)  # 4 slots -> 2
    table = SlotTable(array, 4)
    purposes = [ReadPurpose.OPPORTUNISTIC, ReadPurpose.NORMAL,
                ReadPurpose.RECOVERY, ReadPurpose.NORMAL,
                ReadPurpose.RECOVERY, ReadPurpose.OPPORTUNISTIC]
    plans = [PlannedRead(disk_id=disk_id, position=index, stream_id=index,
                         object_name="x", kind=ReadKind.DATA, index=index,
                         purpose=purposes[index % len(purposes)])
             for index, disk_id in enumerate([0, 1, 1, 1, 2, 2, 2, 2, 2,
                                              1, 0, 2, 1, 3])]
    executed, dropped = table.resolve(plans)
    want_executed, want_dropped = reference_resolve(table, plans)
    assert [id(p) for p in executed] == [id(p) for p in want_executed]
    assert [id(p) for p in dropped] == [id(p) for p in want_dropped]
    assert {p.disk_id for p in dropped} == {0, 1, 2}
    assert sum(p.disk_id == 1 for p in executed) == 2
