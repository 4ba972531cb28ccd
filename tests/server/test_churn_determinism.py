"""Churn-path determinism: ``run_workload(fast_forward=True)`` == scalar.

Every test drives two identical servers with the same compiled trace —
one through the per-cycle scalar loop, one through the scheduler's churn
engine — and requires the full state fingerprint (reports, disk
counters, buffer tracker, per-stream state, summary) to match exactly,
along with the front-door ``WorkloadResult`` accounting.
"""

from __future__ import annotations

import pytest

from repro.errors import AdmissionError
from repro.faults.injector import FaultSchedule
from repro.media import Catalog, MediaObject
from repro.schemes import ALL_IMPLEMENTED_SCHEMES, Scheme
from repro.server.server import MultimediaServer, WorkloadResult
from repro.workload import WorkloadGenerator, compile_trace
from tests.conftest import build_server, tiny_catalog
from tests.sched.test_fast_forward import (
    _fingerprint,
    bails_after_compaction,
    watch_store,
)

CYCLES = 60
HORIZON_CYCLES = 40


def _server(scheme: Scheme, **kwargs: object) -> MultimediaServer:
    if scheme is Scheme.IMPROVED_BANDWIDTH:
        num_disks = 12
    elif scheme is Scheme.PARITY_DECLUSTERED:
        num_disks = 11  # prime: exact declustered design
    else:
        num_disks = 10
    kwargs.setdefault("catalog", tiny_catalog(4, tracks=8))
    kwargs.setdefault("verify_payloads", False)
    return build_server(scheme, num_disks=num_disks, **kwargs)


def _trace(server: MultimediaServer, rate: float, seed: int):
    cycle_length = server.config.cycle_length_s
    generator = WorkloadGenerator(server.catalog,
                                  arrival_rate_per_s=rate / cycle_length,
                                  seed=seed)
    return generator.trace(HORIZON_CYCLES * cycle_length)


def _workload_pair(scheme: Scheme, rate: float = 0.8, seed: int = 7,
                   with_fault: bool = False,
                   **kwargs: object) -> tuple[WorkloadResult, WorkloadResult]:
    slow = _server(scheme, **kwargs)
    fast = _server(scheme, **kwargs)
    schedule_for = (
        (lambda: FaultSchedule.single_failure(8, 1, repair_cycle=20))
        if with_fault else (lambda: None))
    slow_result = slow.run_workload(_trace(slow, rate, seed), CYCLES,
                                    schedule=schedule_for())
    fast_result = fast.run_workload(_trace(fast, rate, seed), CYCLES,
                                    fast_forward=True,
                                    schedule=schedule_for())
    assert _fingerprint(slow, []) == _fingerprint(fast, [])
    return slow_result, fast_result


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workload_fast_forward_matches_scalar(scheme: Scheme) -> None:
    slow, fast = _workload_pair(scheme)
    assert slow == fast
    assert slow.admitted > 0 and slow.rejected == 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workload_rejections_identical(scheme: Scheme) -> None:
    # A tight admission limit forces in-engine rejections on the fast
    # path; the counts and the resulting system state must still match.
    slow, fast = _workload_pair(scheme, rate=1.5, seed=11,
                                admission_limit=3)
    assert slow == fast
    assert slow.rejected > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_workload_matches_scalar_through_fault(scheme: Scheme) -> None:
    # A mid-trace failure and repair: the fast run segments at the fault
    # cycles and bails around degraded stretches, scalar-identically.
    slow, fast = _workload_pair(scheme, seed=5, with_fault=True)
    assert slow == fast


def _churn_arrivals(server: MultimediaServer,
                    spec: dict[int, tuple[int, ...]],
                    ) -> dict[int, tuple[object, ...]]:
    names = server.catalog.names()
    return {cycle: tuple(server.catalog.get(names[i % len(names)])
                         for i in picks)
            for cycle, picks in spec.items()}


def _degraded_churn_pair(scheme: Scheme,
                         spec: dict[int, tuple[int, ...]],
                         cycles: int = 20,
                         prepare=None,
                         failed_disk: "int | None" = 1,
                         **kwargs: object) -> tuple[tuple, tuple, object]:
    """Scalar vs churn-engine run over a *degraded* server (healthy
    with ``failed_disk=None``)."""
    results = []
    fast_report = None
    for fast_forward in (False, True):
        server = _server(scheme, **kwargs)
        if failed_disk is not None:
            server.fail_disk(failed_disk)
        if prepare is not None:
            prepare(server)
        reports, admitted, rejected = server.scheduler.run_churn(
            cycles, _churn_arrivals(server, spec),
            fast_forward=fast_forward)
        assert len(reports) == cycles
        results.append(_fingerprint(server, reports) + (admitted, rejected))
        if fast_forward:
            fast_report = server.report
    return results[0], results[1], fast_report


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_churn_matches_scalar_and_engages(scheme: Scheme) -> None:
    # The merged engine absorbs arrivals *without leaving the epoch*:
    # a single-failure server under churn stays vectorised, bit-equal
    # to the scalar front door.
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0,), 7: (1, 2), 13: (3,)})
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_churn_mid_rebuild_matches_scalar(scheme: Scheme) -> None:
    # Arrivals landing while an online rebuild is in flight: admission,
    # reconstruction rows, and the rebuild cursor share one epoch.
    slow, fast, report = _degraded_churn_pair(
        scheme, {3: (0,), 9: (1,), 15: (2,)}, cycles=30,
        prepare=lambda server: server.scheduler.start_rebuild(
            1, writes_per_cycle=1))
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_churn_saturation_matches_scalar(scheme: Scheme) -> None:
    # Admission saturation while degraded: the in-engine decision must
    # enforce the *degraded* capacity (fault-aware limit), rejecting
    # exactly the requests the scalar front door rejects.
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0, 1, 2, 3), 8: (0, 1), 14: (2, 3)},
        admission_limit=3)
    assert fast == slow
    rejected = slow[-1]
    assert rejected > 0


# -- the row store's boundaries: arrivals far above the live population --

#: Two arrivals per cycle for 60 cycles: 120 requests against an
#: admission limit of 3 live streams.
HEAVY_CHURN = {cycle: (cycle % 4, (cycle + 1) % 4) for cycle in range(60)}
#: One arrival per cycle.
STEADY_CHURN = {cycle: (cycle % 4,) for cycle in range(40)}


def _compactions_per_epoch(events: list[tuple]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for event in events:
        if event[0] == "compact":
            counts[event[1]] = counts.get(event[1], 0) + 1
    return counts


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_churn_far_above_live_population_compacts(
        scheme: Scheme, monkeypatch: pytest.MonkeyPatch) -> None:
    # Window arrivals are 40x the live streams: one epoch compacts its
    # store many times, writing retired rows back mid-epoch.
    events = watch_store(monkeypatch)
    slow, fast, report = _degraded_churn_pair(
        scheme, HEAVY_CHURN, cycles=60, failed_disk=None,
        admission_limit=3)
    assert fast == slow
    assert sum(len(batch) for batch in HEAVY_CHURN.values()) >= 10 * 3
    assert max(_compactions_per_epoch(events).values()) >= 3
    # Retired rows' raised peaks reach the tracker: every completed
    # stream held buffers, and (via the fingerprint) matches scalar.
    peaks = fast[4]
    statuses = [row[1] for row in fast[3]]
    completed = [peak for peak, status in zip(peaks, statuses)
                 if status == "COMPLETED"]
    assert len(completed) > 10
    assert all(peak > 0 for peak in completed)


@pytest.mark.parametrize("scheme", [Scheme.STREAMING_RAID,
                                    Scheme.IMPROVED_BANDWIDTH,
                                    Scheme.PARITY_DECLUSTERED],
                         ids=lambda s: s.value)
def test_slot_overflow_right_after_compaction(
        scheme: Scheme, monkeypatch: pytest.MonkeyPatch) -> None:
    # One slot per disk: the cycle after a compaction overflows a disk
    # and the epoch hands it to the scalar path with the store half
    # rebuilt.
    events = watch_store(monkeypatch)
    slow, fast, _ = _degraded_churn_pair(
        scheme, STEADY_CHURN, cycles=40, failed_disk=None,
        admission_limit=2, slots_per_disk=1)
    assert fast == slow
    assert "slot-overflow" in bails_after_compaction(events)


def test_rebuild_complete_right_after_compaction(
        monkeypatch: pytest.MonkeyPatch) -> None:
    events = watch_store(monkeypatch)
    slow, fast, _ = _degraded_churn_pair(
        Scheme.STREAMING_RAID, STEADY_CHURN, cycles=40,
        prepare=lambda server: server.scheduler.start_rebuild(
            1, writes_per_cycle=1),
        admission_limit=2)
    assert fast == slow
    assert "rebuild-complete" in bails_after_compaction(events)


@pytest.mark.parametrize("scheme,limit", [
    (Scheme.STREAMING_RAID, 3), (Scheme.STAGGERED_GROUP, 4),
    (Scheme.NON_CLUSTERED, 4), (Scheme.IMPROVED_BANDWIDTH, 3),
    (Scheme.PARITY_DECLUSTERED, 3)], ids=lambda v: getattr(v, "value", v))
def test_store_grows_in_a_cycle_that_retires_rows(
        scheme: Scheme, limit: int,
        monkeypatch: pytest.MonkeyPatch) -> None:
    events = watch_store(monkeypatch)
    slow, fast, _ = _degraded_churn_pair(
        scheme, STEADY_CHURN, cycles=40, failed_disk=None,
        admission_limit=limit)
    assert fast == slow
    grown = {(e[1], e[2]) for e in events if e[0] == "grow"}
    retired = {(e[1], e[2]) for e in events if e[0] == "retire"}
    assert grown & retired


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_degraded_rebuild_epoch_across_compactions(
        scheme: Scheme, monkeypatch: pytest.MonkeyPatch) -> None:
    # A 24-object catalog keeps the online rebuild running long enough
    # for one degraded epoch to compact its store repeatedly.
    events = watch_store(monkeypatch)
    slow, fast, report = _degraded_churn_pair(
        scheme, HEAVY_CHURN, cycles=60,
        prepare=lambda server: server.scheduler.start_rebuild(
            1, writes_per_cycle=1),
        admission_limit=3, catalog=tiny_catalog(24, tracks=8))
    assert fast == slow
    degraded = [e for e in events
                if e[0] == "compact" and e[3] and e[4] > 0]
    per_epoch: dict[int, int] = {}
    for event in degraded:
        per_epoch[event[1]] = per_epoch.get(event[1], 0) + 1
    assert max(per_epoch.values()) >= 2


def _disjoint_failure_partner(scheme: Scheme,
                              shared: bool) -> "int | None":
    """A disk to fail alongside disk 1: sharing a parity group with it
    (``shared=True``) or disjoint from it (``shared=False``)."""
    for candidate in range(2, 12):
        probe = _server(scheme)
        if candidate >= len(probe.array.disks):
            break
        probe.fail_disk(1)
        probe.fail_disk(candidate)
        if bool(probe.scheduler._known_lost_tracks) == shared:
            return candidate
    return None


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_double_failure_disjoint_churn_matches_scalar(
        scheme: Scheme) -> None:
    # Two failed disks in disjoint parity groups build a stable
    # multi-failure epoch: the engine stays engaged under churn.
    partner = _disjoint_failure_partner(scheme, shared=False)
    if partner is None:
        pytest.skip("no group-disjoint failure pair in this layout")
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0,), 9: (1,)},
        prepare=lambda server: server.fail_disk(partner))
    assert fast == slow
    assert report.ff_engaged_cycles > 0


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_double_failure_shared_group_bails(scheme: Scheme) -> None:
    # Failures sharing a parity group lose data: the engine must refuse
    # with the shared-group reason and stay bit-equal through the
    # scalar fallback.
    partner = _disjoint_failure_partner(scheme, shared=True)
    if partner is None:
        pytest.skip("no shared-group failure pair in this layout")
    slow, fast, report = _degraded_churn_pair(
        scheme, {2: (0,), 9: (1,)},
        prepare=lambda server: server.fail_disk(partner))
    assert fast == slow
    assert report.ff_disengagements.get("shared-group", 0) >= 1


# -- mixed-rate churn: rate-2 and rate-3 arrivals join the row store ------


def _mixed_rate_catalog() -> Catalog:
    """Four base-rate objects, then a rate-2 (index 4) and a rate-3
    (index 5) one, long enough to stay live across a fault."""
    catalog = tiny_catalog(4, tracks=8)
    catalog.add(MediaObject("double", 0.375, 80, seed=98))
    catalog.add(MediaObject("triple", 0.5625, 120, seed=99))
    return catalog


#: Arrivals by catalog index; rate-2 and rate-3 objects land mid-epoch.
MIXED_CHURN = {1: (0, 4), 4: (5,), 8: (1, 4, 5), 11: (2, 3, 4), 15: (0, 5)}


@pytest.mark.parametrize("fault", [False, True],
                         ids=["healthy", "fail-repair"])
@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_mixed_rate_churn_matches_scalar(scheme: Scheme,
                                         fault: bool) -> None:
    # Healthy, every cycle runs on the engine, arrival cycles of rate-2
    # and rate-3 objects included.  With disk 1 failed for cycles 6-13
    # the degraded epochs refuse the mixed population (``mixed-rates``)
    # and the scalar fallback keeps the runs bit-equal.
    results = []
    for fast_forward in (False, True):
        server = _server(scheme, catalog=_mixed_rate_catalog())
        arrivals = _churn_arrivals(server, MIXED_CHURN)
        reports: list = []
        admitted = rejected = 0
        for count, command in ((6, server.fail_disk),
                               (8, server.repair_disk), (6, None)):
            batch, a, r = server.scheduler.run_churn(
                count, arrivals, fast_forward=fast_forward)
            reports += batch
            admitted += a
            rejected += r
            if fault and command is not None:
                command(1)
        assert {s.rate for s in server.scheduler.streams.values()} \
            == {1, 2, 3}
        results.append(_fingerprint(server, reports) + (admitted, rejected))
    assert results[0] == results[1]
    if fault:
        assert server.report.ff_disengagements.get("mixed-rates", 0) >= 1
    else:
        assert server.report.ff_engaged_cycles == 20


def test_unarrived_requests_are_counted() -> None:
    server = _server(Scheme.STREAMING_RAID)
    trace = _trace(server, rate=0.5, seed=2)
    result = server.run_workload(trace, cycles=HORIZON_CYCLES // 2)
    assert result.unarrived > 0
    assert result.admitted + result.rejected + result.unarrived == len(trace)


def test_precompiled_trace_is_accepted() -> None:
    slow = _server(Scheme.STREAMING_RAID)
    fast = _server(Scheme.STREAMING_RAID)
    compiled = compile_trace(_trace(slow, 0.8, 7),
                             slow.config.cycle_length_s)
    slow_result = slow.run_workload(compiled, CYCLES)
    fast_result = fast.run_workload(compiled, CYCLES, fast_forward=True)
    assert slow_result == fast_result
    assert _fingerprint(slow, []) == _fingerprint(fast, [])


@pytest.mark.parametrize("scheme", ALL_IMPLEMENTED_SCHEMES,
                         ids=lambda s: s.value)
def test_admit_batch_matches_sequential(scheme: Scheme) -> None:
    sequential = _server(scheme, admission_limit=3)
    batched = _server(scheme, admission_limit=3)
    objects = [sequential.catalog.get(name)
               for name in sequential.catalog.names() * 2]
    admitted, rejected = 0, 0
    for obj in objects:
        try:
            sequential.scheduler.admit(obj)
            admitted += 1
        except AdmissionError:
            rejected += 1
    streams, batch_rejected = batched.scheduler.admit_batch(
        [batched.catalog.get(obj.name) for obj in objects])
    assert (len(streams), batch_rejected) == (admitted, rejected)
    assert [(s.stream_id, s.object.name, s.phase) for s in streams] == [
        (s.stream_id, s.object.name, s.phase)
        for s in sorted(sequential.scheduler.streams.values(),
                        key=lambda s: s.stream_id)]
    assert _fingerprint(sequential, []) == _fingerprint(batched, [])
