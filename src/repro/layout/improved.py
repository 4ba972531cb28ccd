"""The Improved-bandwidth layout (Section 4, Figure 8).

No dedicated parity disks: clusters consist of ``C - 1`` *data* disks, and
the parity block of a group stored on cluster ``i`` lives on one of the
disks of cluster ``i + 1`` (round-robin within that cluster so the parity
load spreads evenly).  Every disk therefore serves data in normal mode —
the scheme's selling point — but a disk now belongs to two parity-group
populations (its own cluster's data and the previous cluster's parity),
which is why a failure in each of two *adjacent* clusters already loses
data and the MTTF denominator grows from ``C - 1`` to ``2C - 1``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.layout.base import DataLayout


class ImprovedBandwidthLayout(DataLayout):
    """Clusters of ``C - 1`` data disks; parity shifted to the next cluster."""

    def __init__(self, num_disks: int, parity_group_size: int) -> None:
        super().__init__(num_disks, parity_group_size)
        stripe = parity_group_size - 1
        if num_disks % stripe != 0:
            raise ConfigurationError(
                f"disk count {num_disks} is not a multiple of the data "
                f"stripe width {stripe}"
            )
        if num_disks // stripe < 2:
            raise ConfigurationError(
                "the improved-bandwidth layout needs at least two clusters "
                "(parity lives on the *next* cluster)"
            )

    @property
    def num_clusters(self) -> int:
        """Number of clusters the disks are grouped into."""
        return self.num_disks // self.data_disks_per_group

    @property
    def data_disks_per_group(self) -> int:
        """Data blocks per parity group (``C - 1``)."""
        return self.parity_group_size - 1

    @property
    def data_disk_count(self) -> int:
        """``D'``: every disk serves data in this layout."""
        return self.num_disks

    def cluster_of(self, disk_id: int) -> int:
        """Cluster index of a disk."""
        self._check_disk(disk_id)
        return disk_id // self.data_disks_per_group

    def cluster_disks(self, cluster: int) -> list[int]:
        """Disk ids of one cluster, ascending."""
        self._check_cluster(cluster)
        base = cluster * self.data_disks_per_group
        return list(range(base, base + self.data_disks_per_group))

    def is_parity_disk(self, disk_id: int) -> bool:
        """No disk is *dedicated* to parity here."""
        self._check_disk(disk_id)
        return False

    def _group_disks(self, groups: np.ndarray, start: int, rank: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        nc, stripe = self.num_clusters, self.data_disks_per_group
        cluster = (start + groups) % nc
        # Parity goes round-robin over the next cluster's disks.  The extra
        # ``group // num_clusters`` term advances one more slot per full
        # tour of the clusters; without it slot and target cluster advance
        # in lockstep and some disks would never receive parity.
        slot = (rank + groups + groups // nc) % stripe
        return (cluster[:, None] * stripe + np.arange(stripe),
                (cluster + 1) % nc * stripe + slot)

    def parity_source_cluster(self, disk_id: int) -> int:
        """The cluster whose parity blocks may live on ``disk_id``."""
        return (self.cluster_of(disk_id) - 1) % self.num_clusters

    def is_catastrophic_geometric(self, failed_ids: Iterable[int]) -> bool:
        """Failures in the same or *adjacent* clusters lose data.

        Section 4: "a failure in each of two adjacent clusters causes data
        to be lost", because a parity group spans cluster ``i``'s data disks
        and one disk of cluster ``i + 1``.
        """
        clusters = [self.cluster_of(d) for d in failed_ids]
        distinct = set(clusters)
        return len(distinct) < len(clusters) or any(
            (cluster + 1) % self.num_clusters in distinct
            for cluster in distinct)
