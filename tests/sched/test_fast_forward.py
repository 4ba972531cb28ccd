"""Quiescent-epoch fast-forward: bit-equality against the scalar engine.

Every test builds two identical servers, drives one cycle-by-cycle and
the other with ``fast_forward=True``, and compares a full state
fingerprint — cycle reports, per-disk read counters, buffer-tracker
samples and per-stream peaks, every stream's pointers and buffer
contents, and the rendered summary.  Equality must hold whether the
row engine runs healthy (any rate mix: a rate-r stream reads in r gather
passes), degraded, or bails to scalar cycles (payload mode, standing
faults).
"""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultSchedule
from repro.media import Catalog, MediaObject
from repro.parity.xor import META_PAYLOAD
from repro.sched.base import CycleScheduler
from repro.sched.rows import EpochRows
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.server import MultimediaServer
from tests.conftest import build_server, tiny_catalog

#: Enough cycles to cross delivery start, steady state, and completions.
CYCLES = 30


def _scheme_server(scheme: Scheme, **kwargs: object) -> MultimediaServer:
    if scheme is Scheme.IMPROVED_BANDWIDTH:
        num_disks = 12
    elif scheme is Scheme.PARITY_DECLUSTERED:
        num_disks = 11  # prime: exact declustered design
    else:
        num_disks = 10
    kwargs.setdefault("verify_payloads", False)
    return build_server(scheme, num_disks=num_disks, **kwargs)


def _fingerprint(server: MultimediaServer,
                 reports: list) -> tuple:
    streams = tuple(
        (s.stream_id, s.status.name, s.next_read_track,
         s.next_delivery_track, s.delivery_start_cycle,
         s.delivered_tracks, s.hiccup_count,
         tuple(sorted(s.buffer)), tuple(sorted(s.parity_buffer)))
        for s in sorted(server.scheduler.streams.values(),
                        key=lambda s: s.stream_id))
    tracker = server.scheduler.tracker
    peaks = tuple(tracker.stream_peak(s.stream_id)
                  for s in sorted(server.scheduler.streams.values(),
                                  key=lambda s: s.stream_id))
    return (
        tuple(tuple(sorted(row.items())) for row in server.report.to_rows()),
        tuple(disk.reads for disk in server.array.disks),
        tuple(tracker.samples),
        streams,
        peaks,
        server.scheduler.cycle_index,
        server.report.summary(),
        tuple((r.reads_executed, r.tracks_delivered, r.streams_active,
               r.streams_terminated, r.buffered_tracks) for r in reports),
    )


def _run_pair(scheme: Scheme, drive, **kwargs: object) -> tuple[tuple, tuple]:
    slow = _scheme_server(scheme, **kwargs)
    fast = _scheme_server(scheme, **kwargs)
    for name in slow.catalog.names()[:3]:
        slow.admit(name)
        fast.admit(name)
    slow_reports = drive(slow, False)
    fast_reports = drive(fast, True)
    return (_fingerprint(slow, slow_reports),
            _fingerprint(fast, fast_reports))


def _plain_run(server: MultimediaServer, fast_forward: bool) -> list:
    return server.run_cycles(CYCLES, fast_forward=fast_forward)


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fast_forward_matches_scalar(scheme: Scheme) -> None:
    slow, fast = _run_pair(scheme, _plain_run)
    assert fast == slow


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fast_forward_matches_scalar_through_fault(scheme: Scheme) -> None:
    """A scripted fail/repair interrupts the quiescent epoch mid-stride."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        schedule = FaultSchedule.single_failure(8, 1, repair_cycle=20)
        return server.run_with_schedule(CYCLES, schedule,
                                        fast_forward=fast_forward)

    slow, fast = _run_pair(scheme, drive)
    assert fast == slow


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fast_forward_noop_in_payload_mode(scheme: Scheme) -> None:
    """Payload-verified servers silently fall back to scalar cycles."""
    slow, fast = _run_pair(scheme, _plain_run, verify_payloads=True)
    assert fast == slow


def _mixed_rate_catalog():
    """Two base-rate objects, a rate-2 one and an MPEG-2-style rate-3
    one."""
    catalog = tiny_catalog(2, tracks=40)
    catalog.add(MediaObject("double", 0.375, 60, seed=98))
    catalog.add(MediaObject("fast", 0.5625, 60, seed=99))
    return catalog


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_fast_forward_matches_scalar_mixed_rates(scheme: Scheme) -> None:
    """Rate-2 and rate-3 streams ride the row engine's gather passes
    for every cycle."""
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(scheme, catalog=_mixed_rate_catalog())
        for name in ("m0", "m1", "double", "fast"):
            server.admit(name)
        assert sorted(s.rate for s in server.scheduler.streams.values()) \
            == [1, 1, 2, 3]
        reports = server.run_cycles(CYCLES, fast_forward=fast_forward)
        results.append(_fingerprint(server, reports))
    assert results[0] == results[1]
    assert server.report.ff_engaged_cycles == CYCLES


def test_fast_forward_paces_every_rate_pass() -> None:
    """Each gather pass re-checks NC's pace on the pointer the last pass
    left.

    Outside a degraded burst no path leaves a rate-3 stream part-way
    between two pace targets, so the test moves one a track ahead by
    hand: its next cycle must read two tracks, not three.
    """
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(Scheme.NON_CLUSTERED,
                                catalog=_mixed_rate_catalog())
        ahead = server.admit("fast")
        server.admit("m0")
        reports = server.run_cycles(3, fast_forward=fast_forward)
        ahead.buffer[ahead.next_read_track] = META_PAYLOAD
        ahead.next_read_track += 1
        reports += server.run_cycles(CYCLES, fast_forward=fast_forward)
        results.append(_fingerprint(server, reports))
    assert results[0] == results[1]
    assert server.report.ff_engaged_cycles == 3 + CYCLES


def test_fast_forward_advances_cycle_index() -> None:
    server = _scheme_server(Scheme.STREAMING_RAID)
    server.admit(server.catalog.names()[0])
    server.run_cycles(CYCLES, fast_forward=True)
    assert server.scheduler.cycle_index == CYCLES
    assert len(server.report.cycles) == CYCLES


# -- stable-degraded epochs ------------------------------------------------------


def _deep_fingerprint(server: MultimediaServer, reports: list) -> tuple:
    """The PR-4 fingerprint plus the degraded/rebuild surface: per-disk
    writes and fault-domain states, per-stream reconstruction credit,
    and every rebuilder's cursor."""
    streams = sorted(server.scheduler.streams.values(),
                     key=lambda s: s.stream_id)
    return _fingerprint(server, reports) + (
        tuple(disk.writes for disk in server.array.disks),
        tuple(disk.state.name for disk in server.array.disks),
        tuple(s.reconstructed_tracks for s in streams),
        tuple(sorted(s.lost_tracks) for s in streams),
        tuple((r.disk_id, r.blocks_rebuilt, r.reads_consumed, r.completed)
              for r in server.scheduler.rebuilders),
    )


def _run_degraded_pair(scheme: Scheme, drive,
                       **kwargs: object) -> tuple[tuple, tuple, object]:
    slow = _scheme_server(scheme, **kwargs)
    fast = _scheme_server(scheme, **kwargs)
    for name in slow.catalog.names()[:3]:
        slow.admit(name)
        fast.admit(name)
    slow_reports = drive(slow, False)
    fast_reports = drive(fast, True)
    return (_deep_fingerprint(slow, slow_reports),
            _deep_fingerprint(fast, fast_reports),
            fast.report)


def _rebuild_drive(server: MultimediaServer, fast_forward: bool) -> list:
    """fail -> degraded steady state -> online rebuild -> restored."""
    reports = server.run_cycles(5, fast_forward=fast_forward)
    server.scheduler.fail_disk(0)
    reports += server.run_cycles(10, fast_forward=fast_forward)
    server.scheduler.start_rebuild(0, writes_per_cycle=1)
    reports += server.run_cycles(45, fast_forward=fast_forward)
    return reports


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_rebuild_matches_scalar(scheme: Scheme) -> None:
    """The stable-degraded engine is bit-equal through an entire
    fail -> degraded -> rebuild -> restore arc, and actually engages."""
    slow, fast, report = _run_degraded_pair(scheme, _rebuild_drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0
    # The engine must hand rebuild completion back to the scalar path.
    assert report.ff_disengagements.get("rebuild-complete", 0) >= 1


@pytest.mark.parametrize("protocol", ["lazy", "eager"])
def test_degraded_nc_protocols_match_scalar(protocol: str) -> None:
    """Both NC transition protocols ride the degraded engine."""
    from repro.sched.non_clustered import TransitionProtocol
    proto = (TransitionProtocol.EAGER if protocol == "eager"
             else TransitionProtocol.LAZY)
    slow, fast, report = _run_degraded_pair(
        Scheme.NON_CLUSTERED, _rebuild_drive, protocol=proto)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_media_error_matches_scalar(scheme: Scheme) -> None:
    """A latent sector error mid-epoch forces a scalar interlude; the
    run stays bit-equal and the engine re-engages once it clears."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        position = sorted(server.array[1].positions())[0]
        server.inject_media_error(1, position, transient=True)
        reports += server.run_cycles(20, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_double_failure_matches_scalar(scheme: Scheme) -> None:
    """A second failure (data loss + shed) bails the engine; the scalar
    interlude and the surviving epochs stay bit-equal."""
    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(1)
        reports += server.run_cycles(10, fast_forward=fast_forward)
        server.scheduler.repair_disk(0)
        server.scheduler.repair_disk(1)
        reports += server.run_cycles(10, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


def _disjoint_partner(scheme: Scheme) -> "int | None":
    """A disk whose failure alongside disk 0 loses no data (disjoint
    parity groups), or None when the layout has no such pair."""
    probe = _scheme_server(scheme)
    num_disks = len(probe.array.disks)
    for candidate in range(1, num_disks):
        trial = _scheme_server(scheme)
        trial.scheduler.fail_disk(0)
        trial.scheduler.fail_disk(candidate)
        if not trial.scheduler._known_lost_tracks:
            return candidate
    return None


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_disjoint_multi_failure_matches_scalar(scheme: Scheme) -> None:
    """K=2 independent failures in disjoint parity groups build a
    stable epoch: the engine engages instead of going 100% scalar."""
    partner = _disjoint_partner(scheme)
    if partner is None:
        pytest.skip("no group-disjoint failure pair in this layout")

    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(partner)
        reports += server.run_cycles(15, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0
    assert report.ff_residency() > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_disjoint_multi_failure_dual_rebuild_matches_scalar(
        scheme: Scheme) -> None:
    """Two online rebuilds in flight advance as vectorised cursors in
    scalar rebuilder order, sharing one idle-slot budget per cycle."""
    partner = _disjoint_partner(scheme)
    if partner is None:
        pytest.skip("no group-disjoint failure pair in this layout")

    def drive(server: MultimediaServer, fast_forward: bool) -> list:
        reports = server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.fail_disk(0)
        server.scheduler.fail_disk(partner)
        reports += server.run_cycles(5, fast_forward=fast_forward)
        server.scheduler.start_rebuild(0, writes_per_cycle=1)
        server.scheduler.start_rebuild(partner, writes_per_cycle=1)
        reports += server.run_cycles(50, fast_forward=fast_forward)
        return reports

    slow, fast, report = _run_degraded_pair(scheme, drive)
    assert fast == slow
    assert report.ff_engaged_cycles > 0


def test_residency_counters_stay_out_of_the_fingerprint() -> None:
    """ff_engaged_cycles / ff_disengagements diverge between modes by
    design — the fingerprint (which both runs must share) excludes them,
    and ff_residency() reports the engaged fraction."""
    slow = _scheme_server(Scheme.STREAMING_RAID)
    fast = _scheme_server(Scheme.STREAMING_RAID)
    for name in slow.catalog.names()[:3]:
        slow.admit(name)
        fast.admit(name)
    slow.run_cycles(CYCLES, fast_forward=False)
    fast.run_cycles(CYCLES, fast_forward=True)
    assert slow.report.ff_engaged_cycles == 0
    assert slow.report.ff_residency() == 0.0
    assert fast.report.ff_engaged_cycles > 0
    assert 0.0 < fast.report.ff_residency() <= 1.0


def test_disengagement_reasons_are_tallied() -> None:
    """Every refused entry names its reason; payload mode is the
    canonical always-refused state."""
    server = _scheme_server(Scheme.STREAMING_RAID, verify_payloads=True)
    server.admit(server.catalog.names()[0])
    server.run_cycles(5, fast_forward=True)
    assert server.report.ff_engaged_cycles == 0
    assert server.report.ff_disengagements.get("payload-mode", 0) > 0


# -- the row store's boundaries --------------------------------------------------


def watch_store(monkeypatch: pytest.MonkeyPatch) -> list[tuple]:
    """Record the row store's boundary events during fast runs.

    Each event names its epoch (one per row-engine entry) and the cycle
    it belongs to: ``("grow", epoch, cycle)`` when an admitted batch
    outgrows the store, ``("retire", epoch, cycle)`` when rows complete,
    ``("compact", epoch, cycle, degraded, rebuilders)`` when retired
    rows are written back and squeezed out, and ``("bail", epoch,
    cycle, reason)`` for an in-engine bail at ``cycle``.
    """
    events: list[tuple] = []
    epoch = {"count": 0, "open": False}
    engine = CycleScheduler._fast_forward_rows
    note = CycleScheduler._ff_note
    grow = EpochRows._grow
    retire = EpochRows.retire
    compact = EpochRows._compact

    def traced_engine(self, *args, **kwargs):
        epoch["count"] += 1
        epoch["open"] = True
        try:
            return engine(self, *args, **kwargs)
        finally:
            epoch["open"] = False

    def traced_note(self, reason):
        if reason is not None and epoch["open"]:
            events.append(("bail", epoch["count"], self.cycle_index,
                           reason))
        note(self, reason)

    def traced_grow(self, cap):
        events.append(("grow", epoch["count"],
                       self._scheduler.cycle_index))
        grow(self, cap)

    def traced_retire(self, finished):
        events.append(("retire", epoch["count"],
                       self._scheduler.cycle_index - 1))
        retire(self, finished)

    def traced_compact(self):
        scheduler = self._scheduler
        events.append(("compact", epoch["count"], scheduler.cycle_index - 1,
                       self._deg_pairs is not None,
                       len(scheduler.rebuilders)))
        compact(self)

    monkeypatch.setattr(CycleScheduler, "_fast_forward_rows",
                        traced_engine)
    monkeypatch.setattr(CycleScheduler, "_ff_note", traced_note)
    monkeypatch.setattr(EpochRows, "_grow", traced_grow)
    monkeypatch.setattr(EpochRows, "retire", traced_retire)
    monkeypatch.setattr(EpochRows, "_compact", traced_compact)
    return events


def bails_after_compaction(events: list[tuple]) -> set[str]:
    """In-engine bail reasons raised on the cycle right after one of
    the same epoch's compactions."""
    compacted = {(e[1], e[2] + 1) for e in events if e[0] == "compact"}
    return {e[3] for e in events
            if e[0] == "bail" and (e[1], e[2]) in compacted}


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_stop_on_completion_after_compaction_matches_scalar(
        scheme: Scheme, monkeypatch: pytest.MonkeyPatch) -> None:
    """Chaos-style driving: epochs end right after a completion (whose
    row was just compacted away) and a replacement is admitted."""
    events = watch_store(monkeypatch)
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(scheme, catalog=tiny_catalog(4, tracks=8))
        names = server.catalog.names()
        for name in names[:2]:
            server.admit(name)
        reports = []
        scheduler = server.scheduler
        while scheduler.cycle_index < CYCLES:
            done = set(s.stream_id for s in scheduler.streams.values()
                       if not s.is_active)
            advanced = (scheduler.run_epoch(CYCLES - scheduler.cycle_index,
                                            stop_on_completion=True)
                        if fast_forward else 0)
            if not advanced:
                reports.append(scheduler.run_cycle())
            for stream in list(scheduler.streams.values()):
                if not stream.is_active and stream.stream_id not in done:
                    server.admit(names[(stream.stream_id + 2)
                                       % len(names)])
        results.append(_fingerprint(server, reports))
    assert results[0][:-1] == results[1][:-1]
    assert any(e[0] == "compact" for e in events)
    assert "stream-completed" in bails_after_compaction(events)


def test_imminent_hiccup_after_compaction_matches_scalar(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """A starved stream bails the epoch on the cycle after a compaction.

    No admission path misaligns a stream's read phase, so the test
    shifts one by hand: the long SG stream's next group read moves one
    cycle late, its buffer runs dry at cycle 5, and the short stream
    completes (and is compacted away) at cycle 4.
    """
    events = watch_store(monkeypatch)
    catalog = Catalog()
    catalog.add(MediaObject("long", 0.1875, 8, seed=1))
    catalog.add(MediaObject("short", 0.1875, 3, seed=2))
    results = []
    for fast_forward in (False, True):
        server = _scheme_server(Scheme.STAGGERED_GROUP, catalog=catalog)
        starved = server.admit("long")
        server.admit("short")
        reports = server.run_cycles(2, fast_forward=fast_forward)
        starved.phase = (starved.phase + 1) \
            % server.scheduler.config.stripe_width
        reports += server.run_cycles(10, fast_forward=fast_forward)
        results.append(_fingerprint(server, reports))
        assert server.report.total_hiccups > 0
    assert results[0] == results[1]
    assert "imminent-hiccup" in bails_after_compaction(events)
