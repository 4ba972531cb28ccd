"""Improved-bandwidth layout: parity on the next cluster (Figure 8)."""

import pytest

from repro.disk import DiskArray, PAPER_TABLE1_DRIVE
from repro.errors import ConfigurationError
from repro.layout import BlockKind, ImprovedBandwidthLayout
from repro.media import MediaObject
from repro.parity import ParityCodec

TINY = PAPER_TABLE1_DRIVE.with_overrides(
    track_size_mb=64 / 1_000_000, capacity_mb=64 * 200 / 1_000_000)


def make_layout(disks=8, group=5):
    return ImprovedBandwidthLayout(disks, group)


def obj(name="x", tracks=8):
    return MediaObject(name, 0.1875, tracks)


class TestGeometry:
    def test_clusters_are_c_minus_1_wide(self):
        layout = make_layout(8, 5)
        assert layout.num_clusters == 2
        assert layout.cluster_disks(0) == [0, 1, 2, 3]
        assert layout.cluster_disks(1) == [4, 5, 6, 7]

    def test_all_disks_serve_data(self):
        layout = make_layout(8, 5)
        assert layout.data_disk_count == 8
        assert not any(layout.is_parity_disk(d) for d in range(8))

    def test_disk_count_must_divide_stripe(self):
        with pytest.raises(ConfigurationError):
            ImprovedBandwidthLayout(9, 5)

    def test_needs_two_clusters(self):
        with pytest.raises(ConfigurationError):
            ImprovedBandwidthLayout(4, 5)

    def test_parity_source_cluster(self):
        layout = make_layout(12, 5)
        assert layout.parity_source_cluster(4) == 0
        assert layout.parity_source_cluster(0) == 2  # wraps


class TestPlacement:
    def test_figure8_style_parity_shift(self):
        """Group 0 of X on cluster 0 (disks 0-3); X0p on cluster 1."""
        layout = make_layout(8, 5)
        layout.place(obj("X", 8), start_cluster=0)
        assert [layout.data_address("X", t).disk_id for t in range(4)] == [0, 1, 2, 3]
        parity_disk = layout.parity_address("X", 0).disk_id
        assert parity_disk in (4, 5, 6, 7)

    def test_parity_of_last_cluster_wraps_to_first(self):
        layout = make_layout(8, 5)
        layout.place(obj("X", 8), start_cluster=1)
        parity_disk = layout.parity_address("X", 0).disk_id
        assert parity_disk in (0, 1, 2, 3)

    def test_parity_spreads_across_next_cluster_disks(self):
        """Different objects' parity blocks land on different disks of the
        next cluster (X0p on disk 4, Y0p on disk 5, ... in Figure 8)."""
        layout = make_layout(8, 5)
        for i in range(4):
            layout.place(obj(f"m{i}", 4), start_cluster=0)
        parity_disks = {layout.parity_address(f"m{i}", 0).disk_id
                        for i in range(4)}
        assert parity_disks == {4, 5, 6, 7}

    def test_every_disk_holds_both_data_and_parity(self):
        layout = make_layout(8, 5)
        for i in range(8):
            layout.place(obj(f"m{i}", 16))
        for disk_id in range(8):
            kinds = {b.kind for b in layout.blocks_on_disk(disk_id)}
            assert kinds == {BlockKind.DATA, BlockKind.PARITY}

    def test_mirroring_special_case_c2(self):
        """C = 2: one data disk per group, parity on the next cluster —
        effectively mirroring (paper footnote 11)."""
        layout = ImprovedBandwidthLayout(4, 2)
        x = obj("X", 4)
        layout.place(x, start_cluster=0)
        array = DiskArray(4, TINY)
        layout.materialise(array)
        for track in range(4):
            data_addr = layout.data_address("X", track)
            group, _ = layout.group_of("X", track)
            parity_addr = layout.parity_address("X", group)
            payload = x.track_payload(track, 64)
            assert array[data_addr.disk_id].read(data_addr.position) == payload
            # With one data block per group, parity == the data (a mirror).
            assert array[parity_addr.disk_id].read(parity_addr.position) == payload


class TestCatastrophe:
    def test_single_failure_survivable(self):
        layout = make_layout(12, 5)
        assert not layout.is_catastrophic_geometric([5])

    def test_same_cluster_pair_catastrophic(self):
        layout = make_layout(12, 5)
        assert layout.is_catastrophic_geometric([0, 2])

    def test_adjacent_cluster_pair_catastrophic(self):
        layout = make_layout(12, 5)
        assert layout.is_catastrophic_geometric([3, 4])

    def test_wraparound_adjacency_catastrophic(self):
        layout = make_layout(12, 5)
        # Cluster 2 (disks 8-11) is adjacent to cluster 0 (disks 0-3).
        assert layout.is_catastrophic_geometric([8, 0])

    def test_non_adjacent_clusters_survivable(self):
        layout = make_layout(16, 5)  # 4 clusters
        assert not layout.is_catastrophic_geometric([0, 8])

    def test_k_over_2_failures_survivable_when_spread(self):
        """Section 4: up to K/2 failures survivable (alternating clusters)."""
        layout = make_layout(24, 5)  # 6 clusters of 4
        failures = [0, 8, 16]  # clusters 0, 2, 4
        assert not layout.is_catastrophic_geometric(failures)

    def test_content_based_check_agrees_on_adjacent_clusters(self):
        layout = make_layout(8, 5)
        for i in range(8):
            layout.place(obj(f"m{i}", 16))
        # Disk 0 (cluster 0 data) and disk 4 (holds some cluster-0 parity).
        assert layout.is_catastrophic([0, 4])


class TestMaterialisation:
    def test_reconstruction_across_clusters(self):
        layout = make_layout(8, 5)
        x = obj("X", 8)
        layout.place(x, start_cluster=0)
        array = DiskArray(8, TINY)
        layout.materialise(array)
        codec = ParityCodec(64)
        span = layout.group_span("X", 0)
        parity = array[span.parity.disk_id].read(span.parity.position)
        blocks = [array[a.disk_id].read(a.position) for a in span.data]
        holed = list(blocks)
        holed[0] = None
        assert codec.reconstruct(holed, parity) == blocks[0]

    def test_group_span_crosses_cluster_boundary(self):
        layout = make_layout(8, 5)
        layout.place(obj("X", 8), start_cluster=0)
        span = layout.group_span("X", 0)
        data_clusters = {layout.cluster_of(a.disk_id) for a in span.data}
        parity_cluster = layout.cluster_of(span.parity.disk_id)
        assert data_clusters == {0}
        assert parity_cluster == 1


class TestPlacementRank:
    def test_demand_probe_leaves_parity_rotation_alone(self):
        """Probing an object that is never placed must not take a
        placement rank: the next object's parity stays where it would
        be without the probe."""
        layout = make_layout(20, 5)
        layout.place(obj("a", 12))
        layout.placement_demand(obj("x", 12))
        layout.place(obj("b", 12))
        assert [layout.parity_address("b", g).disk_id
                for g in range(3)] == [9, 14, 19]
