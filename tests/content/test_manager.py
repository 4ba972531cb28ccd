"""Content management: residency, staging, eviction, pinning."""

import pytest

from repro.content import ContentManager, EvictionPolicy, RequestOutcome
from repro.disk import DiskArray, PAPER_TABLE1_DRIVE
from repro.errors import ConfigurationError, LayoutError
from repro.layout import ClusteredParityLayout, ImprovedBandwidthLayout
from repro.media import Catalog, MediaObject
from repro.tertiary import TapeLibrary

TRACK_BYTES = 64
#: Room for exactly three 8-track objects (each needs 2 data + 2 parity
#: blocks per cluster pair... sized empirically: 8 tracks + 2 parity over
#: 10 disks = 1 block per disk; capacity 3 -> three objects fit).
SPEC = PAPER_TABLE1_DRIVE.with_overrides(
    track_size_mb=TRACK_BYTES / 1e6,
    capacity_mb=TRACK_BYTES * 3 / 1e6,  # 3 track slots per disk
)


def make_library(count=6, tracks=8):
    library = Catalog()
    for index in range(count):
        library.add(MediaObject(f"m{index}", 0.1875, tracks, seed=index),
                    popularity=count - index)  # m0 most popular
    return library


def make_manager(resident=3, policy=EvictionPolicy.LRU, library=None):
    library = library or make_library()
    layout = ClusteredParityLayout(10, 5)
    array = DiskArray(10, SPEC)
    for name in library.names()[:resident]:
        layout.place(library.get(name))
    layout.materialise(array)
    manager = ContentManager(layout, array, library,
                             tape=TapeLibrary(), policy=policy)
    return manager, layout, array


class TestHitsAndMisses:
    def test_resident_object_is_a_hit(self):
        manager, _l, _a = make_manager()
        ticket = manager.request("m0", now_s=10.0)
        assert ticket.outcome is RequestOutcome.HIT
        assert ticket.ready_time_s == 10.0
        assert manager.hits == 1

    def test_missing_object_is_staged_from_tape(self):
        manager, layout, array = make_manager(resident=2)
        ticket = manager.request("m5", now_s=0.0)
        assert ticket.outcome is RequestOutcome.MISS
        assert ticket.ready_time_s > 0.0  # exchange + seek + transfer
        assert manager.is_resident("m5")
        # The staged payload is byte-correct on disk.
        obj = manager.library.get("m5")
        address = layout.data_address("m5", 0)
        assert array[address.disk_id].read(address.position) == \
            obj.track_payload(0, TRACK_BYTES)

    def test_staging_time_matches_tape_model(self):
        manager, _l, _a = make_manager(resident=2)
        obj = manager.library.get("m5")
        expected = manager.tape.fragment_fetch_time_s(
            obj.size_mb(SPEC.track_size_mb))
        ticket = manager.request("m5", now_s=5.0)
        assert ticket.ready_time_s == pytest.approx(5.0 + expected)

    def test_hit_rate(self):
        manager, _l, _a = make_manager(resident=2)
        manager.request("m0")
        manager.request("m1")
        manager.request("m5")
        assert manager.hit_rate() == pytest.approx(2 / 3)


class TestEviction:
    def test_full_disks_evict_lru_victim(self):
        manager, layout, array = make_manager(resident=3)
        manager.request("m0", now_s=1.0)
        manager.request("m1", now_s=2.0)
        manager.request("m2", now_s=3.0)
        ticket = manager.request("m3", now_s=4.0)  # disks are full
        assert ticket.outcome is RequestOutcome.MISS
        assert ticket.evicted == ("m0",)  # least recently requested
        assert not manager.is_resident("m0")
        assert manager.is_resident("m3")
        assert manager.evictions == 1

    def test_popularity_policy_evicts_least_popular(self):
        manager, _l, _a = make_manager(resident=3,
                                       policy=EvictionPolicy.POPULARITY)
        ticket = manager.request("m3", now_s=1.0)
        # m2 is the least popular resident (library weights descend).
        assert ticket.evicted == ("m2",)

    def test_purged_payloads_leave_the_disks(self):
        manager, layout, array = make_manager(resident=3)
        address = layout.data_address("m0", 0)
        old_payload = array[address.disk_id].read(address.position)
        manager.request("m3", now_s=1.0)  # evicts m0, reuses its slots
        try:
            current = array[address.disk_id].read(address.position)
        except LayoutError:
            current = None  # slot freed and not yet reused
        assert current != old_payload  # m0's bytes are gone either way

    def test_freed_slots_are_reused_not_grown(self):
        manager, layout, array = make_manager(resident=3)
        high_water = [layout.used_positions(d) for d in range(10)]
        for name in ("m3", "m4", "m5", "m0"):
            manager.request(name, now_s=1.0)
        assert [layout.used_positions(d) for d in range(10)] == high_water

    def test_pinned_objects_survive_eviction_pressure(self):
        manager, _l, _a = make_manager(resident=3)
        manager.pin("m0")
        manager.request("m0", now_s=1.0)
        manager.request("m1", now_s=2.0)
        manager.request("m2", now_s=3.0)
        ticket = manager.request("m3", now_s=4.0)
        # m0 is pinned despite being LRU; m1 goes instead.
        assert ticket.evicted == ("m1",)
        assert manager.is_resident("m0")

    def test_everything_pinned_rejects_the_request(self):
        manager, _l, _a = make_manager(resident=3)
        for name in ("m0", "m1", "m2"):
            manager.pin(name)
        ticket = manager.request("m3")
        assert ticket.outcome is RequestOutcome.REJECTED
        assert manager.rejections == 1
        assert not manager.is_resident("m3")

    def test_unpin_restores_evictability(self):
        manager, _l, _a = make_manager(resident=3)
        for name in ("m0", "m1", "m2"):
            manager.pin(name)
        manager.unpin("m1")
        ticket = manager.request("m3")
        assert ticket.outcome is RequestOutcome.MISS
        assert ticket.evicted == ("m1",)


class TestRejectedStaging:
    def test_rejected_request_leaves_later_placements_alone(self):
        """A request rejected after the capacity probe must leave no
        trace in the layout: the next staged object lands exactly where
        it would have had the rejected request never arrived."""
        library = Catalog()
        library.add(MediaObject("a", 0.1875, 12, seed=0))
        library.add(MediaObject("huge", 0.1875, 400, seed=1))
        library.add(MediaObject("b", 0.1875, 12, seed=2))
        spec = SPEC.with_overrides(capacity_mb=TRACK_BYTES * 8 / 1e6)

        def staged_parity(probe_huge: bool) -> list[int]:
            layout = ImprovedBandwidthLayout(20, 5)
            layout.place(library.get("a"))
            array = DiskArray(20, spec)
            layout.materialise(array)
            manager = ContentManager(layout, array, library,
                                     tape=TapeLibrary())
            manager.pin("a")
            if probe_huge:
                ticket = manager.request("huge")
                assert ticket.outcome is RequestOutcome.REJECTED
            assert manager.request("b").outcome is RequestOutcome.MISS
            return [layout.parity_address("b", g).disk_id
                    for g in range(3)]

        assert staged_parity(True) == staged_parity(False) == [9, 14, 19]


class TestValidation:
    def test_unpin_without_pin_rejected(self):
        manager, _l, _a = make_manager()
        with pytest.raises(ConfigurationError):
            manager.unpin("m0")

    def test_pin_of_non_resident_rejected(self):
        manager, _l, _a = make_manager(resident=2)
        with pytest.raises(LayoutError):
            manager.pin("m5")

    def test_unknown_object_rejected(self):
        manager, _l, _a = make_manager()
        with pytest.raises(KeyError):
            manager.request("nope")

    def test_bytes_staged_accounting(self):
        manager, _l, _a = make_manager(resident=2)
        manager.request("m5")
        obj = manager.library.get("m5")
        assert manager.bytes_staged_mb == pytest.approx(
            obj.size_mb(SPEC.track_size_mb))
