"""The cluster determinism contract: workers=1 == workers=4, bit for bit.

The acceptance test for the scale-out tentpole — every scheme runs the
same 4-shard cluster spec serially and through a four-worker session
pool, and the :meth:`ClusterReport.digest` fingerprints (which fold
every admit/reject decision, shard metric, and per-disk read counter)
must match exactly.  One parametrisation scripts a mid-trace disk
failure (with repair) on shard 1, so the contract is checked through
degraded-mode routing too, not just the quiescent path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import ClusterFault, ClusterSpec, run_cluster
from repro.experiments.clusterbench import smoke_spec
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.metrics import HiccupCause, HiccupRecord

#: One mid-trace failure on shard 1, repaired before the run ends: the
#: faulted shard sheds capacity, the router steers replicas away, and
#: the repair restores the limit — all of it must replay identically.
SHARD1_FAULT = (ClusterFault(shard=1, cycle=5, disk_id=3, mid_cycle=True,
                             repair_cycle=10),)


def spec(scheme: Scheme,
         faults: tuple[ClusterFault, ...] = ()) -> ClusterSpec:
    return ClusterSpec(
        scheme=scheme,
        shards=4,
        # 20 divides by the SR/SG/PD group size (5) and the IB data
        # stripe width (4), so one spec shape serves every scheme.
        disks_per_shard=20,
        parity_group_size=5,
        objects=8,
        tracks_per_object=30,
        slots_per_disk=8,
        admission_limit=10,
        cycles=14,
        window=7,
        arrivals_per_cycle=5.0,
        replicate_top_k=2,
        seed=29,
        fast_forward=True,
        faults=faults,
    )


def assert_bit_identical(cluster_spec: ClusterSpec) -> None:
    serial = run_cluster(cluster_spec, workers=1)
    pooled = run_cluster(cluster_spec, workers=4)
    assert serial.digest() == pooled.digest()
    # The digest covers these, but asserting them directly localises a
    # regression to the field that moved.
    assert serial.admitted == pooled.admitted
    assert serial.rejected == pooled.rejected
    assert serial.per_shard == pooled.per_shard
    assert serial.report.total_delivered == pooled.report.total_delivered
    assert serial.report.total_hiccups == pooled.report.total_hiccups
    # Some work actually happened on several shards.
    assert serial.admitted > 0
    assert sum(1 for s in serial.per_shard if s.admitted > 0) >= 2


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workers_do_not_change_the_cluster(scheme: Scheme) -> None:
    assert_bit_identical(spec(scheme))


def test_mid_trace_disk_failure_replays_identically() -> None:
    faulted_spec = spec(Scheme.STREAMING_RAID, faults=SHARD1_FAULT)
    faulted = run_cluster(faulted_spec, workers=1)
    quiet = run_cluster(spec(Scheme.STREAMING_RAID), workers=1)
    # The fault actually changed the run ...
    assert faulted.digest() != quiet.digest()
    # ... and still replays bit-identically under a worker pool.
    assert_bit_identical(faulted_spec)


def test_parity_declustered_fault_replays_identically() -> None:
    # PD rides its distributed-rebuild path through the same contract.
    assert_bit_identical(spec(Scheme.PARITY_DECLUSTERED,
                              faults=SHARD1_FAULT))


def test_hiccup_records_survive_the_pipe() -> None:
    """Every hiccup record, not just the totals, crosses the pool intact.

    With no admission limit, PD admits more streams than its disks can
    serve, so shards drop reads every cycle; a failure and repair on
    shard 1 adds disk-failure and transition hiccups.  The records come
    home pickled from the pool workers and must equal the in-process
    run's field for field — :meth:`ClusterReport.digest` covers only
    totals.
    """
    overloaded = dataclasses.replace(
        smoke_spec(Scheme.PARITY_DECLUSTERED), admission_limit=None,
        arrivals_per_cycle=20.0,
        faults=(ClusterFault(shard=1, cycle=8, disk_id=3,
                             repair_cycle=18),))
    serial = run_cluster(overloaded, workers=1)
    pooled = run_cluster(overloaded, workers=2)
    hiccups = pooled.report.all_hiccups()
    assert hiccups == serial.report.all_hiccups()
    assert pooled.report.to_rows() == serial.report.to_rows()
    assert all(type(record) is HiccupRecord for record in hiccups)
    assert {record.cause for record in hiccups} >= {
        HiccupCause.SLOT_OVERFLOW, HiccupCause.DISK_FAILURE}
