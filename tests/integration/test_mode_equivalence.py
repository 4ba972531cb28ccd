"""Metadata-only mode is metrics-equivalent to payload mode.

The fast path (``verify_payloads=False``: no payload bytes stored, O(1)
meta-parity accounting) must be *observationally identical* to the
byte-verified simulation: every :class:`CycleReport` field, every hiccup
record, every per-disk read counter and per-stream lifetime counter —
bit-for-bit the same.  Only then can scale studies run in metadata mode
and quote numbers the verified mode would reproduce.
"""

from __future__ import annotations

import pytest

from repro.analysis import SystemParameters
from repro.media import Catalog, MediaObject
from repro.sched import TransitionProtocol
from repro.schemes import Scheme
from repro.server import MultimediaServer

TRACK_BYTES = 64

SCENARIOS = [
    pytest.param(Scheme.STREAMING_RAID, TransitionProtocol.LAZY,
                 id="streaming-raid"),
    pytest.param(Scheme.STAGGERED_GROUP, TransitionProtocol.LAZY,
                 id="staggered-group"),
    pytest.param(Scheme.NON_CLUSTERED, TransitionProtocol.LAZY,
                 id="non-clustered-lazy"),
    pytest.param(Scheme.NON_CLUSTERED, TransitionProtocol.EAGER,
                 id="non-clustered-eager"),
    pytest.param(Scheme.IMPROVED_BANDWIDTH, TransitionProtocol.LAZY,
                 id="improved-bandwidth"),
]


def build(scheme: Scheme, protocol: TransitionProtocol,
          verify_payloads: bool) -> MultimediaServer:
    num_disks = 12 if scheme is Scheme.IMPROVED_BANDWIDTH else 10
    params = SystemParameters.paper_table1(
        num_disks=num_disks,
        track_size_mb=TRACK_BYTES / 1e6,
        disk_capacity_mb=TRACK_BYTES * 4000 / 1e6,
    )
    catalog = Catalog()
    for index in range(4):
        catalog.add(MediaObject(f"m{index}", 0.1875, 40, seed=index))
    return MultimediaServer.build(
        params, 5, scheme, catalog=catalog, protocol=protocol,
        slots_per_disk=8, verify_payloads=verify_payloads)


def drive(server: MultimediaServer, mid_cycle: bool) -> None:
    """One deterministic life: load, fail, degrade, repair, drain."""
    for name in server.catalog.names():
        server.admit(name)
    server.run_cycles(3)
    server.fail_disk(1, mid_cycle=mid_cycle)
    server.run_cycles(4)
    server.repair_disk(1)
    server.run_cycles(8)


def snapshot(server: MultimediaServer) -> dict:
    """Everything an experiment could quote from a finished run."""
    return {
        "cycles": server.report.cycles,
        "payload_mismatches": server.report.payload_mismatches,
        "reads_per_disk": [d.reads for d in server.array.disks],
        "writes_per_disk": [d.writes for d in server.array.disks],
        "streams": [
            (s.stream_id, s.status, s.delivered_tracks, s.hiccup_count,
             s.reconstructed_tracks, sorted(s.lost_tracks))
            for s in server.scheduler.streams.values()
        ],
    }


@pytest.mark.parametrize("mid_cycle", [False, True],
                         ids=["between-cycles", "mid-cycle"])
@pytest.mark.parametrize("scheme,protocol", SCENARIOS)
def test_metadata_mode_matches_payload_mode(scheme, protocol, mid_cycle):
    verified = build(scheme, protocol, verify_payloads=True)
    metadata = build(scheme, protocol, verify_payloads=False)
    drive(verified, mid_cycle)
    drive(metadata, mid_cycle)

    expected = snapshot(verified)
    actual = snapshot(metadata)

    assert expected["payload_mismatches"] == 0
    # CycleReport is a dataclass and HiccupRecord a named tuple, so
    # equality is field-wise: it covers reads, drops, parity traffic,
    # deliveries, reconstructions, hiccup records (cycle/stream/track/
    # cause) and buffer occupancy.
    assert actual["cycles"] == expected["cycles"]
    for key in ("payload_mismatches", "reads_per_disk", "writes_per_disk",
                "streams"):
        assert actual[key] == expected[key], key


@pytest.mark.parametrize("scheme,protocol", SCENARIOS)
def test_metadata_mode_stores_no_bytes(scheme, protocol):
    server = build(scheme, protocol, verify_payloads=False)
    drive(server, mid_cycle=False)
    assert not server.array.store_payloads
    for disk in server.array.disks:
        for position in disk.positions():
            # ``peek`` exposes the raw store: occupied but byte-free.
            assert disk.peek(position) is None
