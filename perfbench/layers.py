"""Per-layer metrics of one traced repetition.

Names, units and the layer each metric belongs to live in
``layers.json`` next to this file; :func:`layer_metrics` computes every
one of them for any workload (a layer a workload does not exercise
reports 0).  Counts come from the finished servers or cluster reports,
times from the spans :mod:`perfbench.tracing` recorded.  Counts and
times are summed over a workload's cells; ratios are pooled, or the
worst cell where pooling has no meaning (``rebuild.read_spread``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import fmean
from typing import Any

from repro.server.server import MultimediaServer
from perfbench.tracing import (
    END,
    FN,
    KEY,
    PARENT,
    RUN,
    START,
    root_seconds,
    durations,
    self_seconds,
)

SPEC_PATH = Path(__file__).with_name("layers.json")

FAULT_COMMANDS = ("fail_disk", "repair_disk")


def load_spec() -> dict[str, Any]:
    """``layers.json``: per-layer metric definitions and held-out seed."""
    with SPEC_PATH.open(encoding="utf-8") as handle:
        spec: dict[str, Any] = json.load(handle)
    return spec


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _barrier_windows(spans: list[list[Any]]) -> dict[tuple[str, int],
                                                      list[float]]:
    """Shard window seconds grouped by (cell run, barrier cycle)."""
    grouped: dict[tuple[str, int], list[float]] = {}
    for span in spans:
        if span[KEY] != "cluster.window":
            continue
        cell_run = span[RUN].split("/pid")[0]
        end_cycle = int(span[FN].rsplit("@", 1)[1])
        grouped.setdefault((cell_run, end_cycle), []).append(
            (span[END] - span[START]) / 1e9)
    return grouped


def _sim_counts(cells: list[Any], observer: Any) -> dict[str, float]:
    """Counts read off the finished servers or cluster reports."""
    reports: list[Any] = []
    disk_reads: list[int] = []
    disk_writes: list[int] = []
    tracks_placed = 0
    for cell in cells:
        subject = cell.subject
        if isinstance(subject, MultimediaServer):
            reports.append(subject.report)
            disk_reads.extend(disk.reads for disk in subject.array)
            disk_writes.extend(disk.writes for disk in subject.array)
            tracks_placed += sum(obj.num_tracks
                                 for obj in subject.layout.objects)
        else:  # a ClusterReport; disks and placement came from workers
            reports.append(subject.report)
    if observer is not None:
        for shard in observer.shard_results:
            disk_reads.extend(shard.disk_reads)
            disk_writes.extend(shard.disk_writes)
            tracks_placed += shard.tracks_placed
    rows = [row for report in reports for row in report.cycles]
    bails: dict[str, int] = {}
    for report in reports:
        for reason, count in report.ff_disengagements.items():
            bails[reason] = bails.get(reason, 0) + count
    planned = sum(row.reads_planned for row in rows)
    return {
        "layout.tracks_placed": tracks_placed,
        "ff_engaged": sum(report.ff_engaged_cycles for report in reports),
        "cycles": len(rows),
        "bails": bails,
        "sched.reads_planned": planned,
        "sched.reads_dropped": sum(row.reads_dropped for row in rows),
        "sched.reconstructions": sum(row.reconstructions for row in rows),
        "sched.useful_read_frac": _ratio(
            sum(row.reads_executed for row in rows), planned),
        "admission.shed": sum(report.total_streams_shed
                              for report in reports),
        "disk.reads": sum(disk_reads),
        "disk.writes": sum(disk_writes),
        "disk.read_skew": _ratio(max(disk_reads, default=0),
                                 fmean(disk_reads) if disk_reads else 0),
        "buffers.peak_tracks": max((report.peak_buffered_tracks
                                    for report in reports), default=0),
    }


def layer_metrics(cells: list[Any], tracer: Any, observer: Any,
                  untraced_run_s: float,
                  ff_vs_scalar: float) -> dict[str, float]:
    """Every per-layer metric of ``layers.json`` for one traced rep.

    ``cells`` are the traced rep's results, with their subjects kept;
    ``untraced_run_s`` is the untraced median the traced run time is
    compared with, both at the nominal host speed.
    """
    spec = load_spec()
    spans = tracer.all_spans()
    own = self_seconds(spans)
    spans_by_key = durations(spans)
    counts = _sim_counts(cells, observer)

    def total(key: str) -> float:
        return sum(spans_by_key.get(key, ()))

    engaged = counts["ff_engaged"]
    bails = counts["bails"]
    listed = [metric["name"].split("sched.ff_bail.", 1)[1]
              for metric in spec["per_layer"]
              if metric["name"].startswith("sched.ff_bail.")
              and metric["name"] != "sched.ff_bail.other"]
    cycles_us = [value * 1e6 for value in spans_by_key.get("sched.cycle",
                                                           ())]
    windows = [(span[END] - span[START]) / 1e9 for span in spans
               if span[KEY] == "parallel.step_all"
               and span[FN].startswith("window-")]
    barrier_windows = _barrier_windows(spans)
    overhead = 0.0
    for index, end_cycle in (observer.barriers if observer else ()):
        step = tracer.spans[index]
        slowest = max(barrier_windows.get((step[RUN], end_cycle), [0.0]))
        overhead += (step[END] - step[START]) / 1e9 - slowest
    imbalance = [max(times) / fmean(times)
                 for times in barrier_windows.values() if fmean(times)]
    delivered = sum(cell.delivered for cell in cells)
    hiccups = sum(cell.hiccups for cell in cells)
    admitted = sum(cell.admitted for cell in cells)
    rejected = sum(cell.rejected for cell in cells)
    extra_sum = {key: sum(cell.extra.get(key, 0) for cell in cells)
                 for key in ("workload.requests", "rebuild.blocks",
                             "rebuild.window_cycles")}
    events = sum(
        1 for span in spans
        if span[FN] in FAULT_COMMANDS
        and (span[PARENT] < 0 or spans[span[PARENT]][FN]
             not in FAULT_COMMANDS))
    cell_wall_s = sum(cell.setup_s + cell.run_s for cell in cells)
    traced_run_s = sum(cell.norm_run_s for cell in cells)

    values: dict[str, float] = {
        "workload.trace_s": own.get("workload.trace", 0.0),
        "workload.requests": extra_sum["workload.requests"],
        "layout.place_s": own.get("layout.place", 0.0),
        "layout.materialise_s": own.get("layout.materialise", 0.0),
        "layout.tracks_placed": counts["layout.tracks_placed"],
        "sched.epoch_s": own.get("sched.epoch", 0.0),
        "sched.epoch_us_per_cycle": _ratio(
            own.get("sched.epoch", 0.0) * 1e6, engaged),
        "sched.ff_residency": _ratio(engaged, counts["cycles"]),
        "sched.ff_bail.other": sum(count for reason, count in bails.items()
                                   if reason not in listed),
        "sched.ff_vs_scalar": ff_vs_scalar,
        "sched.cycle_s": total("sched.cycle"),
        "sched.scalar_cycles": len(cycles_us),
        "sched.cycle_us_p50": percentile(cycles_us, 0.50),
        "sched.cycle_us_p99": percentile(cycles_us, 0.99),
        "sched.plan_reads_s": own.get("sched.plan_reads", 0.0),
        "sched.resolve_s": own.get("sched.resolve", 0.0),
        "sched.cycle_self_s": own.get("sched.cycle", 0.0),
        "rebuild.step_s": own.get("rebuild.step", 0.0),
        "rebuild.blocks": extra_sum["rebuild.blocks"],
        "rebuild.window_cycles": extra_sum["rebuild.window_cycles"],
        "rebuild.read_spread": max((cell.extra.get("rebuild.read_spread",
                                                   0.0) for cell in cells),
                                   default=0.0),
        "admission.admit_s": own.get("admission.admit", 0.0),
        "admission.capacity_s": own.get("admission.capacity", 0.0),
        "metrics.record_s": own.get("metrics.record", 0.0),
        "metrics.merge_s": own.get("metrics.merge", 0.0),
        "faults.apply_s": own.get("faults.apply", 0.0),
        "faults.events": events,
        "cluster.route_s": own.get("cluster.route", 0.0),
        "cluster.window_s_p50": percentile(
            spans_by_key.get("cluster.window", []), 0.50),
        "cluster.window_s_p99": percentile(
            spans_by_key.get("cluster.window", []), 0.99),
        "cluster.shard_imbalance": fmean(imbalance) if imbalance else 0.0,
        "cluster.finalise_s": sum(
            (span[END] - span[START]) / 1e9 for span in spans
            if span[KEY] == "parallel.step_all" and span[FN] == "finalise"),
        "parallel.pool_start_s": total("parallel.pool_start"),
        "parallel.step_all_s_p50": percentile(windows, 0.50),
        "parallel.step_all_s_p99": percentile(windows, 0.99),
        "parallel.barrier_overhead_s": overhead,
        "parallel.ipc_bytes_per_window": (
            fmean(observer.ipc_bytes)
            if observer is not None and observer.ipc_bytes else 0.0),
        "trace.unattributed_s": cell_wall_s - root_seconds(tracer.spans),
        "trace.overhead_frac": _ratio(traced_run_s, untraced_run_s) - 1.0,
        "sim.hiccup_frac": _ratio(hiccups, delivered + hiccups),
        "sim.blocking_prob": _ratio(rejected, admitted + rejected),
    }
    for reason in listed:
        values[f"sched.ff_bail.{reason}"] = bails.get(reason, 0)
    for name in ("sched.reads_planned", "sched.reads_dropped",
                 "sched.reconstructions", "sched.useful_read_frac",
                 "admission.shed", "disk.reads", "disk.writes",
                 "disk.read_skew", "buffers.peak_tracks"):
        values[name] = counts[name]
    missing = {metric["name"] for metric in spec["per_layer"]} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {metric["name"]: float(values[metric["name"]])
            for metric in spec["per_layer"]}
