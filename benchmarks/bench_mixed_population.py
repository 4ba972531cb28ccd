"""Section 1's mixed population: MPEG-1 and MPEG-2 on one server.

"...enough bandwidth to support approximately 6500 concurrent MPEG-2
users or 20,000 MPEG-1 users" — *or some combination of the two*.  This
bench runs a 100-disk Non-clustered server at its 960-unit bound under
three mixes (all-MPEG-1, half-and-half by bandwidth, all-MPEG-2-equivalent)
and shows the trade is exactly linear in rate units: 3 MPEG-1 viewers
per MPEG-2 viewer, hiccup-free at every mix.
"""

from repro.analysis import SystemParameters
from repro.media import Catalog, MediaObject
from repro.schemes import Scheme
from repro.server import MultimediaServer
from scenarios import TRACK_BYTES

BASE = 0.1875
FAST = 3 * BASE
UNITS = 480  # half the 960-unit slot bound.  Uniform loads sustain the
             # full bound (bench_capacity.py); heterogeneous-rate windows
             # under this naive admission need ~2x headroom, because a
             # rate-3 stream's 3-track window lands unevenly across a
             # cluster's disks.  (The paper's reference [3], Grouped
             # Sweeping, is the scheduling machinery that reclaims this.)


def build_server():
    params = SystemParameters.paper_table1(
        num_disks=100,
        track_size_mb=TRACK_BYTES / 1e6,
        disk_capacity_mb=TRACK_BYTES * 4000 / 1e6,
    )
    catalog = Catalog()
    for cluster in range(20):
        # Same playback duration: the 3x object has 3x the tracks.
        catalog.add(MediaObject(f"slow-{cluster}", BASE, 120,
                                seed=cluster))
        catalog.add(MediaObject(f"fast-{cluster}", FAST, 360,
                                seed=100 + cluster))
    return MultimediaServer.build(params, 5, Scheme.NON_CLUSTERED,
                                  catalog=catalog, slots_per_disk=12,
                                  verify_payloads=False)


def run_mix(fast_fraction_units: float, tail: int = 5,
            fast_forward: bool = False):
    """Admit a mix in waves of 12 units/cycle (the NC pipeline fill),
    then run ``tail`` steady cycles."""
    server = build_server()
    fast_units = int(UNITS * fast_fraction_units) // 3 * 3
    slow_units = UNITS - fast_units
    queue = []
    for index in range(fast_units // 3):
        queue.append(f"fast-{index % 20}")
    for index in range(slow_units):
        queue.append(f"slow-{index % 20}")
    # One object's cohort per cycle, 12 units at a time.
    cursor = 0
    while cursor < len(queue):
        units = 0
        while cursor < len(queue) and units < 12:
            stream = server.admit(queue[cursor])
            units += stream.rate
            cursor += 1
        server.run_cycle()
    server.run_cycles(tail, fast_forward=fast_forward)
    return server, fast_units // 3, slow_units


MIXES = [("all MPEG-1", 0.0), ("half/half", 0.5), ("mostly MPEG-2", 0.9)]
#: Steady cycles for the fast-forward digest gate: long enough for the
#: epoch engine to carry every mix, short of the first completions.
TAIL = 40


def compute():
    return {label: run_mix(fraction) for label, fraction in MIXES}


def test_mixed_population(benchmark):
    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    print()
    print("Mixed MPEG-1/MPEG-2 population, 480 units on the 960-unit "
          "NC bound (D = 100):")
    print(f"{'mix':<15}{'MPEG-2':>8}{'MPEG-1':>8}{'units':>7}"
          f"{'tracks/cycle':>14}{'hiccups':>9}")
    for label, (server, fast, slow) in results.items():
        steady = server.report.cycles[-1]
        print(f"{label:<15}{fast:>8}{slow:>8}{fast * 3 + slow:>7}"
              f"{steady.tracks_delivered:>14}{server.report.total_hiccups:>9}")
    for label, (server, fast, slow) in results.items():
        assert fast * 3 + slow == UNITS
        assert server.report.hiccup_free()
        # Steady delivery equals the unit load (1 track per unit-cycle):
        # nobody starved, nobody hiccuped.
        assert server.report.cycles[-1].tracks_delivered == UNITS
        assert server.report.cycles[-1].streams_active == fast + slow
    # The linear trade: 3 MPEG-1 seats buy 1 MPEG-2 seat.
    all_slow = results["all MPEG-1"]
    mostly_fast = results["mostly MPEG-2"]
    assert all_slow[2] == UNITS and all_slow[1] == 0
    assert mostly_fast[1] * 3 + mostly_fast[2] == UNITS


def test_mixed_population_fast_forward_matches_scalar():
    """Digest gate: rate-3 streams on the epoch engine at farm scale.

    Each mix runs twice, the tail cycle by cycle and with
    ``fast_forward=True``; the reports and per-disk read counters must
    be identical.
    """
    print()
    for label, fraction in MIXES:
        scalar, _, _ = run_mix(fraction, tail=TAIL)
        fast, _, _ = run_mix(fraction, tail=TAIL, fast_forward=True)
        assert fast.report.to_rows() == scalar.report.to_rows()
        assert [disk.reads for disk in fast.array.disks] \
            == [disk.reads for disk in scalar.array.disks]
        print(f"{label:<15} ff_engaged_cycles "
              f"{fast.report.ff_engaged_cycles} of {TAIL}")
        assert fast.report.ff_engaged_cycles == TAIL
