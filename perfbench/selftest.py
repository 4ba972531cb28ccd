#!/usr/bin/env python3
"""Self-tests of the benchmark itself, on toy-sized workloads.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced spans nest and have non-negative self times, that tracing
leaves digests unchanged, and that the correctness gate fires on a
wrong digest, a crash and a hang.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.layers import layer_metrics, load_spec  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    END,
    PARENT,
    START,
    PoolObserver,
    Tracer,
    self_seconds,
)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    ArchiveRebuild,
    ClusterHotspot,
    VodChurn,
)


class ToyVod(VodChurn):
    DISKS = 40
    OBJECTS = 10
    TRACKS = 20
    ARRIVALS_PER_CYCLE = 2.0
    CYCLES = 20


class ToyArchive(ArchiveRebuild):
    DISKS = 40
    OBJECTS = 4
    TRACKS = 200
    ADMISSION_LIMIT = 50
    ARRIVALS_PER_CYCLE = 1.0
    WARMUP_CYCLES = 5
    CYCLES = 60


class ToyCluster(ClusterHotspot):
    SHARDS = 2
    DISKS = 40
    OBJECTS = 40
    TRACKS = 100
    CYCLES = 20
    ARRIVALS_PER_CYCLE = 8.0
    REPLICATE_TOP_K = 4


TOYS = (ToyVod, ToyArchive, ToyCluster)


def benchmark_json() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def traced_run(toy: type, seed: int = 5) -> tuple:
    """Measure, trace and check one toy workload, as run.py does."""
    bench = run.Bench(toy(seed), seconds=0.0)
    reps = bench.measure()
    e2e = run.end_to_end(reps, run.peak_rss_mb())
    cells, tracer, observer = bench.traced(reps[0])
    scalar_s, fast_s = bench.oracle(reps[0], e2e["run_s"])
    layers = layer_metrics(cells, tracer, observer, e2e["run_s"],
                           scalar_s / fast_s)
    return e2e, layers, tracer


class MetricsEmitted(unittest.TestCase):
    """Every named metric comes out, with the unit BENCHMARK.json gives."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.runs = {toy.name: traced_run(toy) for toy in TOYS}

    def test_end_to_end_names_and_units(self) -> None:
        declared = {metric["name"]: metric["unit"]
                    for metric in benchmark_json()["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        for name, (e2e, _, _) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(set(e2e), set(declared))
                for value in e2e.values():
                    self.assertGreater(value, 0.0)

    def test_per_layer_names_and_units(self) -> None:
        declared = {(metric["name"], metric["unit"], metric["better"])
                    for metric in benchmark_json()["per_layer"]}
        spec = {(metric["name"], metric["unit"], metric["better"])
                for metric in load_spec()["per_layer"]}
        self.assertEqual(declared, spec)
        names = {name for name, _, _ in declared}
        for name, (_, layers, _) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(set(layers), names)

    def test_layers_see_their_workloads(self) -> None:
        layers = {name: values for name, (_, values, _) in self.runs.items()}
        self.assertGreater(layers["archive-rebuild"]["rebuild.blocks"], 0)
        self.assertGreater(layers["archive-rebuild"]["layout.place_s"], 0)
        self.assertGreater(layers["vod-churn"]["sched.epoch_s"], 0)
        cluster = layers["cluster-hotspot"]
        for name in ("cluster.route_s", "cluster.window_s_p50",
                     "parallel.pool_start_s", "parallel.ipc_bytes_per_window",
                     "sched.cycle_s", "disk.reads", "layout.tracks_placed",
                     "faults.events"):
            self.assertGreater(cluster[name], 0, name)

    def test_spans_nest_and_self_times_are_not_negative(self) -> None:
        for name, (_, _, tracer) in self.runs.items():
            spans = tracer.all_spans()
            with self.subTest(workload=name):
                self.assertTrue(spans)
                for span in spans:
                    self.assertGreaterEqual(span[END], span[START])
                    if span[PARENT] >= 0:
                        parent = spans[span[PARENT]]
                        self.assertGreaterEqual(span[START], parent[START])
                        self.assertLessEqual(span[END], parent[END])
                for key, seconds in self_seconds(spans).items():
                    self.assertGreaterEqual(seconds, 0.0, key)


class Gate(unittest.TestCase):
    """The correctness gate fails runs by name."""

    def test_wrong_digest_fires(self) -> None:
        cells = ToyVod(3).run_cell("SR"), ToyVod(3).run_cell("SR")
        run.gate_cells("toy", [cells[0]], [cells[1]])
        cells[1].digest = "0" * 64
        with self.assertRaisesRegex(run.BenchFailure, "state digest"):
            run.gate_cells("toy", [cells[0]], [cells[1]])

    def test_wrong_tally_fires(self) -> None:
        want, got = ToyVod(3).run_cell("PD"), ToyVod(3).run_cell("PD")
        got.rejected += 1
        with self.assertRaisesRegex(run.BenchFailure, "rejected"):
            run.gate_cells("toy", [want], [got])

    def test_crash_and_hang_are_named(self) -> None:
        with self.assertRaisesRegex(run.BenchFailure, "boom/cell: crashed"):
            run.guarded("boom/cell", lambda: 1 / 0)
        with self.assertRaisesRegex(run.BenchFailure, "slow/cell: hung"):
            run.guarded("slow/cell", lambda: time.sleep(5), limit_s=0.2)
        with self.assertRaisesRegex(run.BenchFailure, "worker died"):
            run.guarded("dead/cell", self._dead_worker)

    @staticmethod
    def _dead_worker() -> None:
        raise EOFError("pipe closed")

    def test_tracer_restores_functions(self) -> None:
        from repro.sched.base import CycleScheduler
        from repro.workload import compiler
        before = (CycleScheduler.run_cycle, compiler.compile_trace)
        tracer = Tracer()
        tracer.install(cluster_sessions=True)
        try:
            self.assertIsNot(CycleScheduler.run_cycle, before[0])
        finally:
            tracer.uninstall()
        self.assertEqual((CycleScheduler.run_cycle, compiler.compile_trace),
                         before)


class Contract(unittest.TestCase):
    """BENCHMARK.json agrees with the code, and a bare copy refuses."""

    def test_workloads_match(self) -> None:
        spec = benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_without_sources_exits_nonzero_and_prints_nothing(self) -> None:
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "vod-churn", "--seed", "1", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_pool_observer_without_tracer_only_times(self) -> None:
        observer = PoolObserver()
        cell = ToyCluster(2).run_cell("SR", observer=observer)
        self.assertEqual(len(observer.ready_at), 1)
        self.assertEqual(observer.ipc_bytes, [])
        self.assertGreater(cell.setup_s, 0.0)
        self.assertGreater(cell.run_s, 0.0)


if __name__ == "__main__":
    unittest.main()
