"""SimulationReport/MetricsReducer merge: exact totals across shards."""

from __future__ import annotations

import pickle

import pytest

from repro.server.metrics import (CycleReport, DataLossEvent, HiccupCause,
                                  HiccupRecord, MetricsReducer,
                                  SimulationReport)


def cycle(index: int, delivered: int = 0, hiccups: int = 0,
          parity: int = 0, buffered: int = 0, shed: int = 0) -> CycleReport:
    report = CycleReport(cycle=index)
    report.reads_planned = delivered + hiccups
    report.reads_executed = delivered
    report.tracks_delivered = delivered
    report.parity_reads = parity
    report.buffered_tracks = buffered
    report.streams_shed = shed
    report.hiccups = [
        HiccupRecord(cycle=index, stream_id=i, object_name="m0", track=i,
                     cause=HiccupCause.DISK_FAILURE)
        for i in range(hiccups)
    ]
    return report


def build(cycles: list[CycleReport],
          tail: int | None = None) -> SimulationReport:
    report = SimulationReport(tail=tail)
    for cycle_report in cycles:
        report.record(cycle_report)
    return report


def test_merge_of_empty_reports_is_empty() -> None:
    merged = SimulationReport().merge(SimulationReport())
    assert merged.cycles == []
    assert merged.total_delivered == 0
    assert merged.total_hiccups == 0
    assert merged.tail is None
    assert merged.reducer is None


def test_merge_with_empty_keeps_singleton_totals() -> None:
    lone = build([cycle(0, delivered=7, hiccups=2, parity=3)])
    for merged in (lone.merge(SimulationReport()),
                   SimulationReport().merge(lone)):
        assert merged.total_delivered == 7
        assert merged.total_hiccups == 2
        assert merged.total_parity_reads == 3
        assert [c.cycle for c in merged.cycles] == [0]


def test_merge_sums_totals_and_interleaves_cycles() -> None:
    left = build([cycle(0, delivered=5), cycle(2, delivered=1, hiccups=1)])
    right = build([cycle(1, delivered=4, parity=2), cycle(2, delivered=3)])
    merged = left.merge(right)
    assert merged.total_delivered == 13
    assert merged.total_hiccups == 1
    assert merged.total_parity_reads == 2
    # Server-cycles interleave by cycle index; equal indices both kept.
    assert [c.cycle for c in merged.cycles] == [0, 1, 2, 2]


def test_merge_does_not_mutate_inputs() -> None:
    left = build([cycle(0, delivered=5)], tail=4)
    right = build([cycle(1, delivered=2)])
    left_cycles = list(left.cycles)
    left_delivered = left.reducer.tracks_delivered
    left.merge(right)
    assert left.cycles == left_cycles
    assert left.reducer.tracks_delivered == left_delivered
    assert right.tail is None and right.reducer is None


def test_mixed_tail_merge_keeps_totals_exact() -> None:
    # Tail-bounded side has already discarded its early cycle objects,
    # but its reducer still carries the whole run.
    bounded = build([cycle(i, delivered=10, buffered=i) for i in range(6)],
                    tail=2)
    assert len(bounded.cycles) == 2
    unbounded = build([cycle(i, delivered=1, hiccups=1) for i in range(3)])
    merged = bounded.merge(unbounded)
    assert merged.tail == 2
    assert len(merged.cycles) == 2
    assert merged.total_delivered == 63
    assert merged.total_hiccups == 3
    assert merged.reducer is not None
    assert merged.reducer.peak_buffered_tracks == 5


def test_merged_tail_is_the_smaller_tail() -> None:
    left = build([cycle(i, delivered=2) for i in range(5)], tail=4)
    right = build([cycle(i, delivered=3) for i in range(5)], tail=3)
    merged = left.merge(right)
    assert merged.tail == 3
    assert len(merged.cycles) == 3
    assert merged.total_delivered == 25


def test_merge_zero_tail_retains_no_cycles_but_exact_totals() -> None:
    left = build([cycle(i, delivered=4) for i in range(4)], tail=0)
    right = build([cycle(0, delivered=6)])
    merged = left.merge(right)
    assert merged.cycles == []
    assert merged.total_delivered == 22


def test_merge_combines_loss_events_and_ff_diagnostics() -> None:
    left = build([cycle(0, shed=1)])
    left.data_loss_events.append(DataLossEvent(
        cycle=3, failed_disks=(1, 2), lost_tracks={"m0": (5,)},
        shed_streams=(9,)))
    left.ff_engaged_cycles = 10
    left.ff_disengagements = {"fault": 1}
    right = build([cycle(1)])
    right.data_loss_events.append(DataLossEvent(
        cycle=1, failed_disks=(7,), lost_tracks={}, shed_streams=()))
    right.ff_engaged_cycles = 4
    right.ff_disengagements = {"fault": 2, "arrival": 1}
    merged = left.merge(right)
    assert [e.cycle for e in merged.data_loss_events] == [1, 3]
    assert merged.total_lost_tracks == 1
    assert merged.total_streams_shed == 1
    assert merged.ff_engaged_cycles == 14
    assert merged.ff_disengagements == {"fault": 3, "arrival": 1}


def test_reducer_merge_counts_server_cycles_and_peak() -> None:
    left = MetricsReducer()
    right = MetricsReducer()
    for i in range(3):
        left.fold(cycle(i, delivered=2, buffered=8))
    for i in range(3):
        right.fold(cycle(i, delivered=5, hiccups=1, buffered=3))
    left.merge(right)
    assert left.cycles_seen == 6
    assert left.tracks_delivered == 21
    assert left.hiccups == 3
    assert left.hiccup_counts == {HiccupCause.DISK_FAILURE: 3}
    assert left.peak_buffered_tracks == 8


def test_negative_tail_rejected() -> None:
    with pytest.raises(ValueError, match="tail"):
        SimulationReport(tail=-1)


def test_cycle_report_pickles_hiccups_as_records() -> None:
    """Hiccups ship as plain tuples and come back as HiccupRecords."""
    report = cycle(7, delivered=3, hiccups=4, parity=1, buffered=5)
    report.hiccups[2] = report.hiccups[2]._replace(
        cause=HiccupCause.SLOT_OVERFLOW, object_name="m1")
    quiet = cycle(8, delivered=2)
    for original in (report, quiet):
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            restored = pickle.loads(pickle.dumps(original, protocol))
            assert restored == original
            assert restored is not original
            assert all(type(record) is HiccupRecord
                       for record in restored.hiccups)
    # Pickling leaves the live report's records untouched, and the
    # payload names no record class: the records travel as tuples.
    assert all(type(record) is HiccupRecord for record in report.hiccups)
    assert b"HiccupRecord" not in pickle.dumps(report,
                                               pickle.HIGHEST_PROTOCOL)
