"""Exact-address equivalence: the array-backed placement against a
per-block reference allocator.

The reference below is the straightforward per-block loop — one
dictionary entry per block, scalar data/parity disk rules per layout,
free slots popped LIFO before the high-water mark grows.  Random
place / remove / re-place sequences must leave both with identical
data and parity addresses, per-disk inventories in allocation order,
occupancy counters, reverse lookups and freed-address order, and the
placement-demand probe must predict exactly the blocks placed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.layout import (
    BlockKind,
    ClusteredParityLayout,
    DeclusteredParityLayout,
    DiskAddress,
    ImprovedBandwidthLayout,
    StoredBlock,
)
from repro.media import MediaObject


class ReferenceLayout:
    """Per-block placement: the scalar rules, one Python object per block."""

    def __init__(self, layout) -> None:
        self.kind = type(layout)
        self.num_disks = layout.num_disks
        self.size = layout.parity_group_size
        self.stripe = self.size - 1
        self.num_clusters = layout.num_clusters
        self.objects: dict[str, MediaObject] = {}
        self.start: dict[str, int] = {}
        self.rank: dict[str, int] = {}
        self.data_addr: dict[tuple[str, int], DiskAddress] = {}
        self.parity_addr: dict[tuple[str, int], DiskAddress] = {}
        self.contents: dict[int, list[StoredBlock]] = {
            d: [] for d in range(self.num_disks)}
        self.next_position = [0] * self.num_disks
        self.free: dict[int, list[int]] = {
            d: [] for d in range(self.num_disks)}
        self.rows: list[tuple[int, ...]] = []
        self.scanned = 0
        self.modulus = getattr(layout, "design_modulus", 0)

    # -- scalar geometry rules -------------------------------------------

    def design_row(self, index: int) -> tuple[int, ...]:
        p = self.modulus
        while len(self.rows) <= index and self.scanned < p * (p - 1):
            j, s = self.scanned % p, 1 + self.scanned % (p - 1)
            self.scanned += 1
            row = tuple((j + i * s) % p for i in range(self.size))
            if max(row) < self.num_disks:
                self.rows.append(row)
        return self.rows[index % len(self.rows)]

    def data_disk(self, name: str, group: int, offset: int) -> int:
        if self.kind is DeclusteredParityLayout:
            index = self.start[name] + group
            row = self.design_row(index)
            slot = index % self.size
            return (row[:slot] + row[slot + 1:])[offset]
        cluster = (self.start[name] + group) % self.num_clusters
        width = self.size if self.kind is ClusteredParityLayout \
            else self.stripe
        return cluster * width + offset

    def parity_disk(self, name: str, group: int) -> int:
        if self.kind is DeclusteredParityLayout:
            index = self.start[name] + group
            return self.design_row(index)[index % self.size]
        cluster = (self.start[name] + group) % self.num_clusters
        if self.kind is ClusteredParityLayout:
            return cluster * self.size + self.size - 1
        slot = (self.rank[name] + group + group // self.num_clusters) \
            % self.stripe
        return (cluster + 1) % self.num_clusters * self.stripe + slot

    # -- per-block allocation -----------------------------------------------

    def blocks(self, obj: MediaObject):
        """``(disk, kind, index)`` per block, in allocation order."""
        for group in range(-(-obj.num_tracks // self.stripe)):
            for offset in range(self.stripe):
                track = group * self.stripe + offset
                if track >= obj.num_tracks:
                    break
                yield (self.data_disk(obj.name, group, offset),
                       BlockKind.DATA, track)
            yield self.parity_disk(obj.name, group), BlockKind.PARITY, group

    def allocate(self, disk_id: int) -> DiskAddress:
        if self.free[disk_id]:
            return DiskAddress(disk_id, self.free[disk_id].pop())
        self.next_position[disk_id] += 1
        return DiskAddress(disk_id, self.next_position[disk_id] - 1)

    def place(self, obj: MediaObject, start: int) -> None:
        self.objects[obj.name] = obj
        self.start[obj.name] = start
        self.rank.setdefault(obj.name, len(self.rank))
        for disk_id, kind, index in self.blocks(obj):
            table = self.data_addr if kind is BlockKind.DATA \
                else self.parity_addr
            table[(obj.name, index)] = self.allocate(disk_id)
            self.contents[disk_id].append(StoredBlock(obj.name, kind, index))

    def remove(self, name: str) -> list[DiskAddress]:
        obj = self.objects.pop(name)
        freed = [self.data_addr.pop((name, t))
                 for t in range(obj.num_tracks)]
        freed += [self.parity_addr.pop((name, g))
                  for g in range(-(-obj.num_tracks // self.stripe))]
        for address in freed:
            self.free[address.disk_id].append(address.position)
        for disk_id in {a.disk_id for a in freed}:
            self.contents[disk_id] = [b for b in self.contents[disk_id]
                                      if b.object_name != name]
        del self.start[name]
        return freed


LAYOUTS = {
    "clustered-10x5": lambda: ClusteredParityLayout(10, 5),
    "clustered-12x3": lambda: ClusteredParityLayout(12, 3),
    "improved-20x5": lambda: ImprovedBandwidthLayout(20, 5),
    "improved-12x4": lambda: ImprovedBandwidthLayout(12, 4),
    "declustered-11x5": lambda: DeclusteredParityLayout(11, 5),
    "declustered-12x4": lambda: DeclusteredParityLayout(12, 4),
}


def assert_same_state(layout, ref: ReferenceLayout) -> None:
    assert [o.name for o in layout.objects] == list(ref.objects)
    for (name, track), address in ref.data_addr.items():
        assert layout.data_address(name, track) == address
    for (name, group), address in ref.parity_addr.items():
        assert layout.parity_address(name, group) == address
    for disk_id in range(ref.num_disks):
        assert layout.blocks_on_disk(disk_id) == ref.contents[disk_id]
        assert layout.used_positions(disk_id) == ref.next_position[disk_id]
        assert layout.occupied_positions(disk_id) == \
            ref.next_position[disk_id] - len(ref.free[disk_id])
        for position, block in _inventory(ref, disk_id).items():
            assert layout.block_at(disk_id, position) == block
        for position in ref.free[disk_id]:
            with pytest.raises(LayoutError):
                layout.block_at(disk_id, position)


def _inventory(ref: ReferenceLayout, disk_id: int) -> dict[int, StoredBlock]:
    found = {}
    for table, kind in ((ref.data_addr, BlockKind.DATA),
                        (ref.parity_addr, BlockKind.PARITY)):
        for (name, index), address in table.items():
            if address.disk_id == disk_id:
                found[address.position] = StoredBlock(name, kind, index)
    return found


@pytest.mark.parametrize("label", sorted(LAYOUTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_churn_matches_reference_allocator(label, data):
    layout = LAYOUTS[label]()
    ref = ReferenceLayout(layout)
    names = [f"o{i}" for i in range(6)]
    for step in range(data.draw(st.integers(min_value=1, max_value=14))):
        placed = [n for n in names if n in ref.objects]
        if placed and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(placed))
            assert layout.remove(victim) == ref.remove(victim)
        else:
            absent = [n for n in names if n not in ref.objects]
            if not absent:
                continue
            name = data.draw(st.sampled_from(absent))
            tracks = data.draw(st.integers(min_value=1, max_value=40))
            start = data.draw(st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=layout.num_clusters - 1)))
            obj = MediaObject(name, 0.1875, tracks, seed=step)
            demand = layout.placement_demand(obj, start_cluster=start)
            before = [layout.occupied_positions(d)
                      for d in range(layout.num_disks)]
            layout.place(obj, start_cluster=start)
            ref.place(obj, len(ref.objects) % layout.num_clusters
                      if start is None else start)
            placed_now = {d: layout.occupied_positions(d) - before[d]
                          for d in range(layout.num_disks)}
            assert demand == {d: n for d, n in placed_now.items() if n}
        assert_same_state(layout, ref)
