#!/usr/bin/env python3
"""Run one benchmark workload; print its metrics as the last JSON line.

    python3 perfbench/run.py --workload vod-churn --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root.  The run

1. repeats the workload (set up every cell, then run it) for
   ``--seconds`` seconds, with at least three repetitions, and reports
   the median set-up and run times.  Times are given at a nominal host
   speed: each cell's wall seconds are scaled by how fast a fixed
   reference loop runs right around it (see ``REFERENCE_S``); the raw
   wall seconds and the speed factor of every cell are in the record
   line printed before the result;
2. with ``--trace 1``, runs one more repetition with every layer wrapped
   in spans (:mod:`perfbench.tracing`) and reports the per-layer metrics
   of ``perfbench/layers.json`` instead of the end-to-end ones, writing
   the spans to ``.perfbench_out/``;
3. replays every cell through the scalar path, the oracle, and requires
   equal state digests and admit/reject tallies (and, for the cluster,
   equal digests at one and two workers).

Every cell run has a wall-time cap; a crash, a dead pool worker, a hang
or a failed check ends the run as a named failure, prints the result
with ``"correct": false`` and exits 1.  Without the program's sources
next to it, the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Thread pools a numeric library may start; pinned so a run's load
#: stays within the worker processes it asks for.
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
#: The host-speed reference: a fixed pure-Python loop, and the seconds
#: it is taken to last on the nominal host.  Every cell's times are
#: scaled by REFERENCE_S over the loop's time measured right before and
#: after the cell, so minutes-long swings in the speed of a shared host
#: do not read as changes in the program.
REFERENCE_LOOP = 100_000
REFERENCE_S = 0.005
MIN_REPS = 3
MAX_REPS = 40
#: Wall-time cap on one cell run (set-up plus run).
CELL_LIMIT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "delivered_tracks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "on_time_frac": "frac",
    "admit_frac": "frac",
}


class BenchFailure(Exception):
    """A named failed run: crash, dead worker, hang or failed check."""


class RunTimeout(Exception):
    """Raised by the watchdog's alarm inside a cell that overran."""


@contextmanager
def watchdog(seconds: float) -> Iterator[None]:
    """Raise :class:`RunTimeout` in the main thread after ``seconds``."""
    def expire(signum: int, frame: Any) -> None:
        raise RunTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def guarded(label: str, action: Callable[[], Any],
            limit_s: float = CELL_LIMIT_S) -> Any:
    """Run one cell; turn every way it can go wrong into a named failure."""
    from perfbench.workloads import CheckFailed
    try:
        with watchdog(limit_s):
            return action()
    except RunTimeout:
        raise BenchFailure(
            f"{label}: hung, stopped after {limit_s:.0f} s") from None
    except (EOFError, BrokenPipeError, ConnectionError) as exc:
        raise BenchFailure(
            f"{label}: a pool worker died ({type(exc).__name__}: {exc})"
        ) from exc
    except CheckFailed as exc:
        raise BenchFailure(f"{label}: check failed: {exc}") from exc
    except Exception as exc:  # any crash is reported, by name
        raise BenchFailure(
            f"{label}: crashed ({type(exc).__name__}: {exc})") from exc


def require_equal(label: str, what: str, expected: Any,
                  actual: Any) -> None:
    """The correctness gate's one comparison."""
    if expected != actual:
        raise BenchFailure(f"{label}: {what} differs: expected "
                           f"{expected!r}, got {actual!r}")


def gate_cells(label: str, expected: list[Any], actual: list[Any]) -> None:
    """Cell by cell: equal state digests and admit/reject tallies."""
    for want, got in zip(expected, actual, strict=True):
        where = f"{label}/{want.label}"
        require_equal(where, "state digest", want.digest, got.digest)
        require_equal(where, "admitted", want.admitted, got.admitted)
        require_equal(where, "rejected", want.rejected, got.rejected)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int, workers: int) -> dict[str, Any]:
    """What a record needs to be compared with another host's."""
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
        "workers": workers,
        "thread_pools": {var: os.environ[var] for var in THREAD_POOL_VARS},
    }


def reference_seconds() -> float:
    """Fastest of three timings of the reference loop, now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(REFERENCE_LOOP):
            total += value
        best = min(best, time.perf_counter() - start)
    return best


def stop_children() -> None:
    """Stop and reap every process this run started.

    Pool workers are joined (terminated first if still alive), and the
    resource-tracker helper that spawn-based pools start once per
    parent, which otherwise outlives the run, is stopped and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Bench:
    """One invocation: measure, optionally trace, then check."""

    def __init__(self, workload: Any, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0

    def cell(self, label: str, cell: str, **options: Any) -> Any:
        """One guarded cell run, counted as attempted, with the host's
        speed measured on both sides of it (see REFERENCE_S).

        Every cell starts from a collected heap, so the cyclic garbage a
        previous cell left is not collected on this cell's clock.
        """
        self.attempted += 1
        gc.collect()
        before = reference_seconds()
        result = guarded(label, lambda: self.workload.run_cell(cell,
                                                               **options))
        result.speed = 2 * REFERENCE_S / (before + reference_seconds())
        return result

    def rep(self, tag: str, **options: Any) -> list[Any]:
        """Every cell of the workload once."""
        name = self.workload.name
        return [self.cell(f"{name}/{cell}/{tag}", cell, **options)
                for cell in self.workload.cells]

    def measure(self) -> list[list[Any]]:
        """Repeat the workload for the measuring time; check each rep
        left the same state as the first."""
        reps: list[list[Any]] = []
        start = time.perf_counter()
        while len(reps) < MIN_REPS or (
                time.perf_counter() - start < self.seconds
                and len(reps) < MAX_REPS):
            reps.append(self.rep(f"rep{len(reps)}"))
            gate_cells(f"{self.workload.name}/rep{len(reps) - 1}",
                       reps[0], reps[-1])
        return reps

    def oracle(self, fast: list[Any],
               fast_run_s: float) -> tuple[float, float]:
        """The scalar replay, at one worker; returns its run seconds and
        the fast path's at the same worker count."""
        name = self.workload.name
        scalar = self.rep("scalar", fast_forward=False, workers=1)
        gate_cells(f"{name}/scalar-vs-fast", scalar, fast)
        scalar_s = sum(cell.norm_run_s for cell in scalar)
        if self.workload.workers == 1:
            return scalar_s, fast_run_s
        single = self.rep("fast-w1", workers=1)
        gate_cells(f"{name}/w1-vs-w{self.workload.workers}", single, fast)
        return scalar_s, sum(cell.norm_run_s for cell in single)

    def traced(self, untraced: list[Any]) -> tuple[list[Any], Any, Any]:
        """One rep with every layer wrapped; digests must not move."""
        from perfbench.tracing import PoolObserver, Tracer
        tracer = Tracer()
        observer = PoolObserver(tracer)
        tracer.install(cluster_sessions=self.workload.workers > 1)
        cells: list[Any] = []
        try:
            for cell in self.workload.cells:
                tracer.run_id = f"{self.workload.name}/{cell}"
                cells.append(self.cell(
                    f"{self.workload.name}/{cell}/traced", cell, keep=True,
                    observer=observer))
        finally:
            tracer.uninstall()
        gate_cells(f"{self.workload.name}/traced-vs-untraced", untraced,
                   cells)
        return cells, tracer, observer


def end_to_end(reps: list[list[Any]], rss_mb: float) -> dict[str, float]:
    """The six user-facing metrics from the measured repetitions.

    Times are at the nominal host speed, per-cell medians over the
    repetitions, summed over the workload's cells, so a burst of host
    load that hits one cell of one repetition moves nothing.
    """
    cells = list(zip(*reps))
    setup_s = sum(statistics.median(cell.norm_setup_s for cell in runs)
                  for runs in cells)
    run_s = sum(statistics.median(cell.norm_run_s for cell in runs)
                for runs in cells)
    first = reps[0]
    delivered = sum(cell.delivered for cell in first)
    hiccups = sum(cell.hiccups for cell in first)
    admitted = sum(cell.admitted for cell in first)
    rejected = sum(cell.rejected for cell in first)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "delivered_tracks_per_s": delivered / run_s,
        "peak_rss_mb": rss_mb,
        "on_time_frac": delivered / (delivered + hiccups),
        "admit_frac": admitted / (admitted + rejected),
    }


def write_trace(workload: str, seed: int, tracer: Any) -> Path:
    """Write the traced rep's spans out (they stayed in memory)."""
    from perfbench.tracing import END, FN, KEY, PARENT, RUN, START
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    rows = [{"name": span[KEY], "fn": span[FN], "start_ns": span[START],
             "end_ns": span[END], "parent": span[PARENT], "run": span[RUN]}
            for span in tracer.all_spans()]
    path.write_text(json.dumps(rows), encoding="utf-8")
    return path


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("vod-churn", "archive-rebuild",
                                 "cluster-hotspot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return bench_main(parse_args(argv))
    finally:
        stop_children()


def bench_main(args: argparse.Namespace) -> int:
    """One measured (and optionally traced) run; the result line."""
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the simulator's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.layers import layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(workload, args.seconds)
    record: dict[str, Any] = {
        "workload": workload.name,
        "host": host_facts(args.seed, workload.workers),
        "trace": args.trace,
    }
    metrics: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    try:
        reps = bench.measure()
        rss_mb = peak_rss_mb()
        record["reps"] = [{cell.label: [cell.setup_s, cell.run_s,
                                        cell.speed]
                           for cell in rep} for rep in reps]
        record["digests"] = {cell.label: cell.digest for cell in reps[0]}
        e2e = end_to_end(reps, rss_mb)
        if args.trace:
            cells, tracer, observer = bench.traced(reps[0])
        scalar_s, fast_s = bench.oracle(reps[0], e2e["run_s"])
        record["oracle"] = {"scalar_run_s": scalar_s, "fast_run_s": fast_s}
        if args.trace:
            from perfbench.layers import load_spec
            units = {metric["name"]: metric["unit"]
                     for metric in load_spec()["per_layer"]}
            values = layer_metrics(cells, tracer, observer, e2e["run_s"],
                                   scalar_s / fast_s)
            metrics = {name: (value, units[name])
                       for name, value in values.items()}
            record["spans"] = str(write_trace(workload.name, args.seed,
                                              tracer))
        else:
            metrics = {name: (value, END_TO_END[name])
                       for name, value in e2e.items()}
    except BenchFailure as failure:
        failures.append(str(failure))
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
        metrics = {}
    record["failures"] = failures
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": bench.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
