"""In-memory span tracing of the simulator's layers, wrapped from outside.

The benchmark never edits the program.  :meth:`Tracer.install` replaces
the layers' public functions (and the methods subclasses override) with
thin wrappers that record one span per call: ``[key, fn, start_ns,
end_ns, parent, run]``.  Spans stay in a list until the benchmark writes them
out at the end; self time is a span's duration minus what its child
spans cover.

The cluster runner steps its shards inside spawn workers, which import
the program afresh.  Their spans are recorded by a second tracer that
the traced session functions below install inside the worker; the final
session step ships that tracer's spans (and the shard's per-disk
counters) back to the parent, where :class:`PoolObserver` harvests them.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional

from repro.cluster.shard import (
    ShardResult,
    finalise_shard,
    init_shard,
    run_shard_window,
)
from repro.parallel import SessionPool, TaskSpec

#: Span fields, by position.
KEY, FN, START, END, PARENT, RUN = range(6)

#: The tracer recording in this process, if any.  One per process: the
#: wrappers are installed on shared classes, so a spawn worker holding
#: two shard sessions records both into the tracer its first session
#: init created.
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Spans recorded in this process, kept in memory."""

    def __init__(self, run_id: str = "") -> None:
        self.spans: list[list[Any]] = []
        #: Spans shipped home from spawn workers (their own roots).
        self.adopted: list[list[Any]] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: Created inside a spawn worker, so its spans must travel home.
        self.remote = False

    def wrap(self, key: str, fn_name: str,
             func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` recording one ``key`` span per call."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            with _Span(self, key, fn_name):
                return func(*args, **kwargs)

        return traced

    def span(self, key: str, fn_name: str = "") -> "_Span":
        """A ``with`` block recorded as one span."""
        return _Span(self, key, fn_name)

    def drain(self) -> list[list[Any]]:
        """Hand over every recorded span (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("cannot drain spans while one is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def adopt(self, spans: list[list[Any]], run_prefix: str) -> None:
        """Keep spans another process recorded, apart from this one's."""
        base = len(self.adopted)
        for span in spans:
            moved = list(span)
            if moved[PARENT] >= 0:
                moved[PARENT] += base
            moved[RUN] = f"{run_prefix}/{moved[RUN]}"
            self.adopted.append(moved)

    def all_spans(self) -> list[list[Any]]:
        """This process's spans, then the adopted ones (indices kept)."""
        base = len(self.spans)
        return self.spans + [
            span[:PARENT] + [span[PARENT] + base if span[PARENT] >= 0
                             else -1] + span[PARENT + 1:]
            for span in self.adopted]

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, key: str) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(key, attr, original))
        self._patches.append((owner, attr, original))

    def _patch_hierarchy(self, base: type, attr: str, key: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
        pending = [base]
        seen: set[type] = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in vars(cls):
                self._patch(cls, attr, key)
            pending.extend(cls.__subclasses__())

    def _patch_function(self, func: Any, replacement: Any) -> None:
        """Rebind a module-level function in every ``repro`` module."""
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, func))

    def install(self, cluster_sessions: bool = False) -> None:
        """Wrap every function :func:`layer_targets` names."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        import repro.server.server  # noqa: F401  (imports every scheme)
        from repro.workload import compiler
        for key, owner, attrs in layer_targets():
            for attr in attrs:
                self._patch_hierarchy(owner, attr, key)
        self._patch_function(compiler.compile_trace, self.wrap(
            "workload.trace", "compile_trace", compiler.compile_trace))
        if cluster_sessions:
            for func, replacement in (
                    (init_shard, traced_init_shard),
                    (run_shard_window, traced_run_shard_window),
                    (finalise_shard, traced_finalise_shard)):
                self._patch_function(func, replacement)
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every wrapped function (reverse order)."""
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None


class _Span:
    """Context manager behind :meth:`Tracer.span`."""

    __slots__ = ("tracer", "key", "fn_name", "index")

    def __init__(self, tracer: Tracer, key: str, fn_name: str) -> None:
        self.tracer = tracer
        self.key = key
        self.fn_name = fn_name
        self.index = -1

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.spans)
        stack = tracer._stack
        tracer.spans.append([self.key, self.fn_name,
                             time.perf_counter_ns(), 0,
                             stack[-1] if stack else -1, tracer.run_id])
        stack.append(self.index)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer._stack.pop()
        self.tracer.spans[self.index][END] = time.perf_counter_ns()


def layer_targets() -> list[tuple[str, type, tuple[str, ...]]]:
    """``(span key, class, methods)`` for every traced layer boundary."""
    from repro.cluster.router import ClusterRouter
    from repro.faults.injector import FaultSchedule
    from repro.layout.base import DataLayout
    from repro.sched.base import CycleScheduler
    from repro.sched.rebuild import OnlineRebuilder
    from repro.server.metrics import SimulationReport
    from repro.workload.generator import WorkloadGenerator
    return [
        ("workload.trace", WorkloadGenerator, ("trace",)),
        ("layout.place", DataLayout, ("place_catalog",)),
        ("layout.materialise", DataLayout, ("materialise",)),
        ("sched.epoch", CycleScheduler,
         ("run_churn", "run_cycles", "run_epoch")),
        ("sched.cycle", CycleScheduler, ("run_cycle",)),
        ("sched.plan_reads", CycleScheduler, ("plan_reads",)),
        ("sched.resolve", CycleScheduler, ("resolve_plans",)),
        ("rebuild.step", OnlineRebuilder,
         ("run_step", "prepare_fast_plan", "fast_step")),
        ("admission.admit", CycleScheduler, ("admit_batch", "admit")),
        ("admission.capacity", CycleScheduler,
         ("effective_admission_limit",)),
        ("metrics.record", SimulationReport, ("record",)),
        ("metrics.merge", SimulationReport, ("merge",)),
        ("faults.apply", FaultSchedule, ("apply",)),
        ("faults.apply", CycleScheduler, ("fail_disk", "repair_disk")),
        ("cluster.route", ClusterRouter, ("route_window", "observe")),
    ]


# -- cluster sessions --------------------------------------------------------


@dataclass(frozen=True)
class TracedShardResult(ShardResult):
    """A :class:`ShardResult` carrying the worker's spans and counters."""

    disk_reads: tuple[int, ...] = ()
    disk_writes: tuple[int, ...] = ()
    tracks_placed: int = 0
    spans: tuple[tuple[Any, ...], ...] = ()
    pid: int = 0


def _session_tracer() -> Tracer:
    """The tracer of this process, installing one in a fresh worker."""
    if _ACTIVE is not None:
        return _ACTIVE
    tracer = Tracer(run_id=f"pid{os.getpid()}")
    tracer.remote = True
    tracer.install()
    return tracer


def traced_init_shard(spec: Any) -> Any:
    """Session init under a span (installs the worker's tracer)."""
    tracer = _session_tracer()
    with tracer.span("cluster.init", f"shard-{spec.shard_id}"):
        return init_shard(spec)


def traced_run_shard_window(state: Any, batches: Any,
                            end_cycle: int) -> Any:
    """One shard window under a span tagged with shard and barrier."""
    tracer = _session_tracer()
    with tracer.span("cluster.window",
                     f"shard-{state.spec.shard_id}@{end_cycle}"):
        return run_shard_window(state, batches, end_cycle)


def traced_finalise_shard(state: Any) -> TracedShardResult:
    """Final session step: the result plus counters and worker spans."""
    tracer = _session_tracer()
    with tracer.span("cluster.finalise_shard",
                     f"shard-{state.spec.shard_id}"):
        result = finalise_shard(state)
    disks = list(state.server.array)
    return TracedShardResult(
        **{field.name: getattr(result, field.name)
           for field in fields(result)},
        disk_reads=tuple(disk.reads for disk in disks),
        disk_writes=tuple(disk.writes for disk in disks),
        tracks_placed=sum(obj.num_tracks for obj in state.spec.objects),
        spans=(tuple(tuple(span) for span in tracer.drain())
               if tracer.remote else ()),
        pid=os.getpid())


class PoolObserver:
    """What the benchmark learns about each session pool it is handed.

    Always records when each pool finished starting (the set-up / run
    boundary of a cluster run).  With a tracer it also records pool
    start and every ``step_all`` as spans, the bytes each window step
    pickles across the process boundary, and harvests worker spans and
    per-disk counters from the final step.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.ready_at: list[float] = []
        self.ipc_bytes: list[int] = []
        self.barriers: list[tuple[int, int]] = []
        self.shard_results: list[TracedShardResult] = []

    def pool_class(self) -> type:
        """A :class:`SessionPool` subclass reporting to this observer."""
        observer = self

        class ObservedPool(SessionPool):
            def __init__(self, sessions: Any, workers: int = 1) -> None:
                if observer.tracer is None:
                    super().__init__(sessions, workers=workers)
                else:
                    with observer.tracer.span("parallel.pool_start",
                                              f"workers={workers}"):
                        super().__init__(sessions, workers=workers)
                observer.ready_at.append(time.perf_counter())

            def step_all(self, fn: Any, args: Any = None,
                         label: str = "") -> list[Any]:
                tracer = observer.tracer
                if tracer is None:
                    return super().step_all(fn, args=args, label=label)
                with tracer.span("parallel.step_all", label) as span:
                    results = super().step_all(fn, args=args, label=label)
                observer.record_step(tracer, fn, args, results, span.index)
                return results

        return ObservedPool

    def record_step(self, tracer: Tracer, fn: Any, args: Any,
                    results: list[Any], span_index: int) -> None:
        """Account one traced ``step_all``: bytes, barrier, harvest."""
        if args is not None:
            shipped = sum(len(pickle.dumps(TaskSpec(fn, args=tuple(step))))
                          for step in args)
            returned = sum(len(pickle.dumps(result)) for result in results)
            self.ipc_bytes.append(shipped + returned)
            self.barriers.append((span_index, int(args[0][-1])))
            return
        for result in results:
            if isinstance(result, TracedShardResult):
                self.shard_results.append(result)
                tracer.adopt([list(span) for span in result.spans],
                             f"{tracer.run_id}/pid{result.pid}")


# -- reading spans -----------------------------------------------------------


def durations(spans: list[list[Any]]) -> dict[str, list[float]]:
    """Seconds per span, grouped by key."""
    grouped: dict[str, list[float]] = {}
    for span in spans:
        grouped.setdefault(span[KEY], []).append(
            (span[END] - span[START]) / 1e9)
    return grouped


def self_seconds(spans: list[list[Any]]) -> dict[str, float]:
    """Self time per key: each span's duration minus its children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    totals: dict[str, float] = {}
    for span, nanos in zip(spans, own):
        totals[span[KEY]] = totals.get(span[KEY], 0.0) + nanos / 1e9
    return totals


def root_seconds(spans: list[list[Any]]) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(span[END] - span[START]
               for span in spans if span[PARENT] < 0) / 1e9
