"""The benchmark's workloads: inputs made from a seed, run through the
simulator's public entry points.

Each workload is a list of *cells* (one farm, or one cluster, per
scheme).  A cell is set up (farm built, request trace generated and
compiled) and then run; :func:`run_cell` times the two phases apart and
returns the cell's simulated outcome with a digest of its final state,
which the correctness gate compares against the scalar path.

All three workloads are metadata-only farms of 1000 disks per server
with toy 64-byte tracks, so a cycle's cost is the simulator's own
bookkeeping rather than payload copying.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from perfbench.tracing import PoolObserver
from repro.analysis.parameters import SystemParameters
from repro.cluster import runner as cluster_runner
from repro.cluster.runner import ClusterFault, ClusterSpec
from repro.media.catalog import Catalog
from repro.media.objects import MediaObject
from repro.schemes import Scheme
from repro.server.server import MultimediaServer
from repro.units import bytes_to_mb
from repro.workload import compiler
from repro.workload.generator import WorkloadGenerator

NUM_DISKS = 1000
PARITY_GROUP = 5
TRACK_BYTES = 64
POSITIONS_PER_DISK = 4000
#: The base object bandwidth of Table 1 (1.5 Mb/s), in MB/s.
BASE_RATE_MB_S = 0.1875

SCHEMES = {scheme.value: scheme for scheme in (
    Scheme.STREAMING_RAID, Scheme.STAGGERED_GROUP, Scheme.NON_CLUSTERED,
    Scheme.IMPROVED_BANDWIDTH, Scheme.PARITY_DECLUSTERED)}


@dataclass
class CellResult:
    """One cell's timings and simulated outcome."""

    label: str
    setup_s: float
    run_s: float
    digest: str
    admitted: int
    rejected: int
    delivered: int
    hiccups: int
    #: The finished server or cluster report, kept only when asked for.
    subject: Any = None
    #: Simulated facts a workload adds (rebuild window, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Host speed while the cell ran, relative to the nominal host.
    speed: float = 1.0

    @property
    def norm_setup_s(self) -> float:
        """Set-up seconds at the nominal host speed."""
        return self.setup_s * self.speed

    @property
    def norm_run_s(self) -> float:
        """Run seconds at the nominal host speed."""
        return self.run_s * self.speed


class CheckFailed(Exception):
    """The program's output broke an invariant the benchmark checks."""


def farm_params(num_disks: int) -> SystemParameters:
    """Table-1 parameters with toy tracks and deep drives."""
    return SystemParameters.paper_table1(
        num_disks=num_disks,
        track_size_mb=bytes_to_mb(TRACK_BYTES),
        disk_capacity_mb=bytes_to_mb(TRACK_BYTES * POSITIONS_PER_DISK))


def make_catalog(prefix: str, count: int, tracks: int) -> Catalog:
    """``count`` base-rate objects of ``tracks`` tracks each."""
    catalog = Catalog()
    for index in range(count):
        catalog.add(MediaObject(f"{prefix}{index}", BASE_RATE_MB_S, tracks,
                                seed=index))
    return catalog


def derive(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds from the benchmark seed."""
    states = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) for value in states]


def state_digest(server: MultimediaServer) -> str:
    """SHA-256 over everything a run leaves behind in one server.

    Report rows, per-disk read/write counters and states, buffer
    samples, every stream's pointers and buffers, rebuild cursors, lost
    tracks and the cycle index.  Fast-forward diagnostics stay out: the
    epoch engines must leave exactly the state the scalar loop leaves.
    """
    scheduler = server.scheduler
    streams = [
        [s.stream_id, s.status.value, s.next_read_track,
         s.next_delivery_track, s.delivery_start_cycle,
         s.delivered_tracks, s.hiccup_count, s.reconstructed_tracks,
         sorted(s.buffer), sorted(s.parity_buffer), sorted(s.lost_tracks)]
        for s in sorted(scheduler.streams.values(),
                        key=lambda s: s.stream_id)]
    state = {
        "rows": server.report.to_rows(),
        "reads": [disk.reads for disk in server.array],
        "writes": [disk.writes for disk in server.array],
        "disk_states": [disk.state.name for disk in server.array],
        "buffer_samples": list(scheduler.tracker.samples),
        "streams": streams,
        "rebuilders": [[r.disk_id, r.blocks_rebuilt, r.reads_consumed,
                        r.completed] for r in scheduler.rebuilders],
        "lost": {name: list(tracks)
                 for name, tracks in sorted(server.lost_tracks.items())},
        "cycle_index": scheduler.cycle_index,
    }
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compile_requests(server: MultimediaServer, per_cycle: float,
                     theta: float, cycles: int, seed: int) -> Any:
    """A Poisson/Zipf request trace over ``cycles`` cycles, compiled."""
    cycle_s = server.config.cycle_length_s
    generator = WorkloadGenerator(server.catalog, per_cycle / cycle_s,
                                  zipf_theta=theta, seed=seed)
    return compiler.compile_trace(generator.trace(cycles * cycle_s),
                                  cycle_s)


def _server_cell(label: str, setup: Callable[[], tuple[Any, Any]],
                 run: Callable[[Any, Any], tuple[int, int, dict]],
                 keep: bool) -> CellResult:
    """Time set-up and run of one single-server cell."""
    t0 = time.perf_counter()
    server, trace = setup()
    t1 = time.perf_counter()
    admitted, rejected, extra = run(server, trace)
    t2 = time.perf_counter()
    report = server.report
    return CellResult(label, t1 - t0, t2 - t1, state_digest(server),
                      admitted, rejected, report.total_delivered,
                      report.total_hiccups, server if keep else None, extra)


class VodChurn:
    """Healthy farms, one per scheme, under Poisson/Zipf churn.

    Short objects and an explicit admission limit a little below the
    offered load keep the front door busy rejecting, while the limit
    stays well inside every scheme's slot budget.
    """

    name = "vod-churn"
    cells = tuple(SCHEMES)
    workers = 1
    DISKS = NUM_DISKS
    OBJECTS = 200
    TRACKS = 100
    SLOTS_PER_DISK = 32
    ARRIVALS_PER_CYCLE = 30.0
    ZIPF_THETA = 0.3
    #: Offered load over the admission limit.
    OVERLOAD = 1.25
    CYCLES = 150

    def __init__(self, seed: int) -> None:
        self.trace_seed = derive(seed, 1)[0]

    def admission_limit(self, scheme: Scheme) -> int:
        """Streams admitted at most: the offered load over OVERLOAD."""
        _, k_prime = scheme.read_granularity(PARITY_GROUP)
        lifetime_cycles = self.TRACKS / k_prime
        return int(self.ARRIVALS_PER_CYCLE * lifetime_cycles
                   / self.OVERLOAD)

    def run_cell(self, cell: str, fast_forward: bool = True,
                 workers: Optional[int] = None, keep: bool = False,
                 observer: Any = None) -> CellResult:
        scheme = SCHEMES[cell]

        def setup() -> tuple[Any, Any]:
            server = MultimediaServer.build(
                farm_params(self.DISKS), PARITY_GROUP, scheme,
                catalog=make_catalog("m", self.OBJECTS, self.TRACKS),
                slots_per_disk=self.SLOTS_PER_DISK,
                admission_limit=self.admission_limit(scheme))
            return server, compile_requests(
                server, self.ARRIVALS_PER_CYCLE, self.ZIPF_THETA,
                self.CYCLES, self.trace_seed)

        def run(server: Any, trace: Any) -> tuple[int, int, dict]:
            result = server.run_workload(trace, self.CYCLES,
                                         fast_forward=fast_forward)
            if result.admitted + result.rejected + result.unarrived \
                    != trace.total:
                raise CheckFailed(f"{cell}: front-door accounting {result} "
                                  f"does not add up to {trace.total}")
            return result.admitted, result.rejected, {
                "workload.requests": trace.total}

        return _server_cell(cell, setup, run, keep)


class ArchiveRebuild:
    """Long archive objects; one disk fails and rebuilds online.

    Light arrivals (about 1200 streams by the end, a tenth of what the
    slot budget carries) keep reading while the failed disk's blocks are
    reconstructed onto a spare through the idle slots; the spare
    finishes well before the run ends, so every run covers healthy,
    degraded, rebuilding and healthy-again stretches.
    """

    name = "archive-rebuild"
    cells = ("SR", "PD")
    workers = 1
    DISKS = NUM_DISKS
    OBJECTS = 20
    TRACKS = 4000
    SLOTS_PER_DISK = 64
    ADMISSION_LIMIT = 2000
    ARRIVALS_PER_CYCLE = 4.0
    ZIPF_THETA = 0.3
    WARMUP_CYCLES = 20
    CYCLES = 300
    REBUILD_WRITES_PER_CYCLE = 1

    def __init__(self, seed: int) -> None:
        trace_seed, disk_seed = derive(seed, 2)
        self.trace_seed = trace_seed
        self.failed_disk = disk_seed % self.DISKS

    def run_cell(self, cell: str, fast_forward: bool = True,
                 workers: Optional[int] = None, keep: bool = False,
                 observer: Any = None) -> CellResult:
        scheme = SCHEMES[cell]
        disk = self.failed_disk

        def setup() -> tuple[Any, Any]:
            server = MultimediaServer.build(
                farm_params(self.DISKS), PARITY_GROUP, scheme,
                catalog=make_catalog("a", self.OBJECTS, self.TRACKS),
                slots_per_disk=self.SLOTS_PER_DISK,
                admission_limit=self.ADMISSION_LIMIT)
            return server, compile_requests(
                server, self.ARRIVALS_PER_CYCLE, self.ZIPF_THETA,
                self.CYCLES, self.trace_seed)

        def run(server: Any, trace: Any) -> tuple[int, int, dict]:
            warm = server.run_workload(trace, self.WARMUP_CYCLES,
                                       fast_forward=fast_forward)
            server.fail_disk(disk)
            rebuilder = server.scheduler.start_rebuild(
                disk, writes_per_cycle=self.REBUILD_WRITES_PER_CYCLE)
            rest = server.run_workload(
                trace, self.CYCLES - self.WARMUP_CYCLES,
                fast_forward=fast_forward)
            if not rebuilder.completed or server.array[disk].is_failed:
                raise CheckFailed(
                    f"{cell}: rebuild of disk {disk} unfinished after "
                    f"{self.CYCLES} cycles ({rebuilder.blocks_rebuilt}/"
                    f"{rebuilder.total_blocks} blocks)")
            if server.lost_tracks:
                raise CheckFailed(f"{cell}: a single failure lost data")
            admitted = warm.admitted + rest.admitted
            rejected = warm.rejected + rest.rejected
            if admitted + rejected != trace.arrivals_before(self.CYCLES):
                raise CheckFailed(f"{cell}: front-door accounting does "
                                  "not match the trace")
            last = max(row.cycle for row in server.report.cycles
                       if row.blocks_rebuilt)
            survivors = [rebuilder.source_reads.get(d, 0)
                         for d in range(self.DISKS) if d != disk]
            mean = sum(survivors) / len(survivors)
            return admitted, rejected, {
                "workload.requests": trace.total,
                "rebuild.blocks": rebuilder.blocks_rebuilt,
                "rebuild.window_cycles": last - self.WARMUP_CYCLES + 1,
                "rebuild.read_spread": max(survivors) / mean,
            }

        return _server_cell(cell, setup, run, keep)


class ClusterHotspot:
    """Four 1000-disk shards under hot-title Zipf load, per scheme.

    The default admission bound, top-k replication of the hottest
    titles, and a disk failure (repaired later) on a seed-chosen shard.
    """

    name = "cluster-hotspot"
    cells = ("SR", "PD")
    workers = 2
    DISKS = NUM_DISKS
    SHARDS = 4
    OBJECTS = 800
    TRACKS = 200
    CYCLES = 30
    WINDOW = 10
    ARRIVALS_PER_CYCLE = 150.0
    ZIPF_THETA = 1.0
    REPLICATE_TOP_K = 8

    def __init__(self, seed: int) -> None:
        spec_seed, shard, disk, cycle = derive(seed, 4)
        fail_cycle = self.CYCLES // 4 + cycle % (self.CYCLES // 4)
        self.spec_seed = spec_seed
        self.fault = ClusterFault(
            shard=shard % self.SHARDS, cycle=fail_cycle,
            disk_id=disk % self.DISKS,
            repair_cycle=fail_cycle + self.CYCLES // 3)

    def spec(self, cell: str, fast_forward: bool) -> ClusterSpec:
        """The cluster experiment for one scheme."""
        return ClusterSpec(
            scheme=SCHEMES[cell], shards=self.SHARDS,
            disks_per_shard=self.DISKS, parity_group_size=PARITY_GROUP,
            objects=self.OBJECTS, tracks_per_object=self.TRACKS,
            admission_limit=None, cycles=self.CYCLES, window=self.WINDOW,
            arrivals_per_cycle=self.ARRIVALS_PER_CYCLE,
            zipf_theta=self.ZIPF_THETA,
            replicate_top_k=self.REPLICATE_TOP_K, seed=self.spec_seed,
            fast_forward=fast_forward, faults=(self.fault,))

    def run_cell(self, cell: str, fast_forward: bool = True,
                 workers: Optional[int] = None, keep: bool = False,
                 observer: Any = None) -> CellResult:
        observer = observer if observer is not None else PoolObserver()
        original = cluster_runner.SessionPool
        cluster_runner.SessionPool = observer.pool_class()
        try:
            t0 = time.perf_counter()
            report = cluster_runner.run_cluster(
                self.spec(cell, fast_forward),
                workers=self.workers if workers is None else workers)
            t2 = time.perf_counter()
        finally:
            cluster_runner.SessionPool = original
        t1 = observer.ready_at[-1]
        return CellResult(cell, t1 - t0, t2 - t1, report.digest(),
                          report.admitted, report.rejected,
                          report.report.total_delivered,
                          report.report.total_hiccups,
                          report if keep else None,
                          {"workload.requests": report.admitted
                           + report.rejected + report.unarrived})


WORKLOADS = {workload.name: workload
             for workload in (VodChurn, ArchiveRebuild, ClusterHotspot)}
