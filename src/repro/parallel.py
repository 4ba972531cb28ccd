"""Deterministic sharded process-pool execution for ensemble runs.

The paper's headline numbers come from *ensembles* — Monte-Carlo
reliability replications, chaos campaigns, C/D/scheme benchmark grids —
that are embarrassingly parallel.  This module runs them across worker
processes without giving up the repo's core contract: **a run is fully
determined by its seeds**, regardless of worker count.

Three design rules make parallel runs bit-identical to serial ones:

1. **Self-seeded tasks.**  Each :class:`TaskSpec` carries everything its
   result depends on; nothing is read from shared mutable state.  Seeds
   for shards are derived ahead of time (:func:`derive_seeds`, built on
   ``numpy.random.SeedSequence.spawn``) so shard *i*'s stream is a pure
   function of ``(root_seed, i)``.
2. **Spawn-safety at construction.**  Pools use the ``spawn`` start
   method (fresh interpreters — the only portable choice, and the one
   that cannot silently fork half-mutated state).  Task callables must
   therefore be picklable: module-level functions in importable modules.
   Lambdas, closures and ``__main__``-only functions are rejected when
   the :class:`TaskSpec` is built — loudly, and identically for
   ``workers=1`` — so a workload never *becomes* unparallelisable.
   Rule R7 of ``repro.checks`` enforces the same contract statically.
3. **Ordered merge.**  Results are returned (or streamed into a
   reducer) strictly in task-submission order, whatever order workers
   finish in.  Aggregations are therefore independent of scheduling.

``workers=1`` never creates a pool: tasks run in-process, in order, so
small runs and debugging sessions pay zero multiprocessing overhead.

For stateful shards — a cluster of servers stepped through many trace
segments — re-pickling the server per task would dominate the run.
:class:`SessionPool` is the **persistent-worker session mode**: each
session's state is built *once*, inside a long-lived spawn worker, from
a self-contained :class:`TaskSpec`; subsequent steps ship only the step
function and its (small) arguments, and the state never crosses a
process boundary again.  Sessions are multiplexed round-robin over the
worker processes, results always come back in session order, and
``workers=1`` keeps every state in-process — so, exactly like
:class:`ParallelRunner`, the two modes are interchangeable bit for bit.
"""

from __future__ import annotations

import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterable, Optional, Sequence

from numpy.random import SeedSequence

from repro.errors import SessionError, SpawnSafetyError


def spawn_safety_violation(value: object) -> Optional[str]:
    """Why ``value`` cannot ride in a spawn-based task, or ``None``.

    Checks the properties pickling relies on without actually pickling
    (payloads can be large): the callable must be addressable as
    ``module.qualname`` in a freshly spawned interpreter.
    """
    target = value.func if isinstance(value, functools.partial) else value
    if not callable(target):
        return None
    qualname = getattr(target, "__qualname__", "")
    module = getattr(target, "__module__", "")
    if "<lambda>" in qualname:
        return "lambdas are not picklable under the spawn start method"
    if "<locals>" in qualname:
        return (f"{qualname!r} is defined inside a function; spawn "
                "workers cannot import it")
    if module == "__main__":
        return (f"{qualname!r} lives in __main__; spawn workers "
                "re-import the script and will not find it")
    return None


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One self-contained unit of ensemble work.

    ``fn(*args, **kwargs)`` must depend only on its arguments (plus
    imported module code), so running it in another process — or another
    week — gives the same answer.  Construction validates spawn-safety
    of ``fn`` and of every callable argument; see
    :func:`spawn_safety_violation`.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        problem = spawn_safety_violation(self.fn)
        if problem is not None:
            raise SpawnSafetyError(f"task {self.label or '?'}: {problem}")
        for position, value in enumerate(self.args):
            problem = spawn_safety_violation(value)
            if problem is not None:
                raise SpawnSafetyError(
                    f"task {self.label or '?'} argument {position}: "
                    f"{problem}")
        for name, value in self.kwargs.items():
            problem = spawn_safety_violation(value)
            if problem is not None:
                raise SpawnSafetyError(
                    f"task {self.label or '?'} argument {name!r}: "
                    f"{problem}")


def _execute(spec: TaskSpec) -> Any:
    """Run one task (module-level so the spec itself is the only pickle)."""
    return spec.fn(*spec.args, **spec.kwargs)


class ParallelRunner:
    """Runs :class:`TaskSpec` batches with deterministic, ordered merge.

    ``workers=1`` executes in-process (no pool, no pickling at run time);
    ``workers>1`` fans out over a spawn-context process pool.  Either
    way, results come back in task order, so the two modes are
    interchangeable bit for bit.
    """

    __slots__ = ("workers",)

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run(self, tasks: Iterable[TaskSpec],
            reducer: Optional[Callable[[Any, Any], Any]] = None,
            initial: Any = None) -> Any:
        """Execute every task; return ordered results or a reduction.

        Without ``reducer``: a list of results in task order.  With
        ``reducer``: results are folded as ``acc = reducer(acc, result)``
        strictly in task order, starting from ``initial`` — but
        *streamingly*, so completed shards are merged (and freed) while
        slower shards still run.
        """
        specs = list(tasks)
        for spec in specs:
            if not isinstance(spec, TaskSpec):
                raise TypeError(
                    f"ParallelRunner.run takes TaskSpec items, got "
                    f"{type(spec).__name__}")
        if self.workers == 1 or len(specs) <= 1:
            return self._run_serial(specs, reducer, initial)
        return self._run_pool(specs, reducer, initial)

    def _run_serial(self, specs: Sequence[TaskSpec],
                    reducer: Optional[Callable[[Any, Any], Any]],
                    initial: Any) -> Any:
        if reducer is None:
            return [_execute(spec) for spec in specs]
        accumulator = initial
        for spec in specs:
            accumulator = reducer(accumulator, _execute(spec))
        return accumulator

    def _run_pool(self, specs: Sequence[TaskSpec],
                  reducer: Optional[Callable[[Any, Any], Any]],
                  initial: Any) -> Any:
        width = min(self.workers, len(specs))
        with ProcessPoolExecutor(max_workers=width,
                                 mp_context=get_context("spawn")) as pool:
            futures = {pool.submit(_execute, spec): index
                       for index, spec in enumerate(specs)}
            if reducer is None:
                results: list[Any] = [None] * len(specs)
                for future in as_completed(futures):
                    results[futures[future]] = future.result()
                return results
            # Stream the fold in task order: buffer only the shards that
            # finished ahead of the merge frontier.
            accumulator = initial
            frontier = 0
            ready: dict[int, Any] = {}
            for future in as_completed(futures):
                ready[futures[future]] = future.result()
                while frontier in ready:
                    accumulator = reducer(accumulator, ready.pop(frontier))
                    frontier += 1
            return accumulator


def _session_worker(conn: Connection) -> None:
    """Long-lived worker loop: hold session states, run steps against them.

    All state lives in locals (never at module scope — rule R7), so a
    spawned worker cannot silently diverge from its parent: everything
    it knows arrived through an explicit, validated :class:`TaskSpec`.

    Protocol (parent -> worker):

    * ``("init", sid, spec)``  — build session ``sid``'s state as
      ``spec.fn(*spec.args, **spec.kwargs)``;
    * ``("step", sid, spec)``  — run ``spec.fn(state, *spec.args,
      **spec.kwargs)`` against the held state;
    * ``("stop",)``            — exit at once.

    Every init/step is answered with ``(sid, ok, payload)`` where
    ``payload`` is the result or, on failure, the exception.

    On stop the worker flushes its standard streams and leaves through
    ``os._exit``: the held states die with the process instead of being
    freed object by object (two 1000-disk shard servers take a tenth of
    a second to tear down) while :meth:`SessionPool.close` waits.
    """
    states: dict[int, Any] = {}
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            conn.close()
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
        _, sid, spec = message
        try:
            if kind == "init":
                states[sid] = _execute(spec)
                result: Any = None
            else:
                result = spec.fn(states[sid], *spec.args, **spec.kwargs)
            conn.send((sid, True, result))
        except Exception as exc:
            conn.send((sid, False, exc))


class SessionPool:
    """Persistent per-session state over long-lived spawn workers.

    ``sessions`` is one :class:`TaskSpec` per session; each is executed
    exactly once to *build* that session's state (e.g. a fully loaded
    shard server) inside whichever worker owns the session.  Sessions
    are assigned round-robin: session ``i`` lives in worker ``i % W``
    for the whole pool lifetime, so its state is built once and stepped
    in place — never re-pickled between steps.

    ``workers=1`` builds every state in-process and steps it directly:
    no processes, no pickling, and — because steps are applied to each
    session in the same order either way — results bit-identical to any
    other worker count.

    A step that raises closes the pool and re-raises the step's
    exception; a worker that dies (a crash, ``os._exit``) closes the
    pool and raises :class:`~repro.errors.SessionError` naming the
    session, the step and the worker's exit code.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    __slots__ = ("workers", "_specs", "_states", "_conns", "_procs",
                 "_owner", "_closed")

    def __init__(self, sessions: Sequence[TaskSpec],
                 workers: int = 1) -> None:
        specs = list(sessions)
        for spec in specs:
            if not isinstance(spec, TaskSpec):
                raise TypeError(
                    f"SessionPool takes TaskSpec sessions, got "
                    f"{type(spec).__name__}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not specs:
            raise ValueError("SessionPool needs at least one session")
        self.workers = min(workers, len(specs))
        self._specs = specs
        self._states: list[Any] = []
        self._conns: list[Connection] = []
        self._procs: list[Any] = []
        #: session index -> owning worker index (round-robin pinning).
        self._owner = [index % self.workers for index in range(len(specs))]
        self._closed = False
        if self.workers == 1:
            self._states = [_execute(spec) for spec in specs]
            return
        context = get_context("spawn")
        for _ in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(target=_session_worker,
                                      args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        # Ship every session's build spec to its owner, then collect the
        # acknowledgements — builds proceed concurrently across workers.
        for sid, spec in enumerate(specs):
            self._send(sid, ("init", sid, spec), "init")
        self._collect(len(specs), "init")

    def __len__(self) -> int:
        return len(self._specs)

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def step_all(self, fn: Callable[..., Any],
                 args: Optional[Sequence[tuple[Any, ...]]] = None,
                 label: str = "") -> list[Any]:
        """Run ``fn(state, *args[i])`` against every session's state.

        Returns results in session order.  ``fn`` must be a module-level
        function (spawn workers import it by qualified name); spawn
        safety of the function and of every argument is validated up
        front via :class:`TaskSpec`, identically for ``workers=1``.  All
        step messages are dispatched before any result is awaited, so
        sessions owned by different workers run concurrently.
        """
        if self._closed:
            raise RuntimeError("SessionPool is closed")
        count = len(self._specs)
        if args is None:
            args = [()] * count
        if len(args) != count:
            raise ValueError(
                f"step_all got {len(args)} argument tuples for "
                f"{count} sessions")
        specs = [TaskSpec(fn, args=tuple(step_args),
                          label=label or getattr(fn, "__name__", "step"))
                 for step_args in args]
        if self.workers == 1:
            return [spec.fn(state, *spec.args)
                    for state, spec in zip(self._states, specs)]
        step = specs[0].label
        for sid, spec in enumerate(specs):
            self._send(sid, ("step", sid, spec), step)
        return self._collect(count, step)

    def _collect(self, expected: int, step: str) -> list[Any]:
        """Gather ``expected`` replies to ``step``, in session order.

        Each worker answers its own messages in the order they were
        sent, so draining per-worker queues round-robin is deadlock-free
        and deterministic — and the reply a dead worker still owed names
        the session it died under.
        """
        results: list[Any] = [None] * len(self._specs)
        pending = expected
        for worker, conn in enumerate(self._conns):
            for sid in range(worker, len(self._specs), self.workers):
                if pending == 0:
                    break
                try:
                    got, ok, payload = conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._worker_died(worker, sid, step) from exc
                if not ok:
                    self.close()
                    raise payload
                results[got] = payload
                pending -= 1
        return results

    def _send(self, sid: int, message: tuple[Any, ...], step: str) -> None:
        """Send one message to the worker that owns session ``sid``."""
        worker = self._owner[sid]
        try:
            self._conns[worker].send(message)
        except OSError as exc:
            raise self._worker_died(worker, sid, step) from exc

    def _worker_died(self, worker: int, sid: int,
                     step: str) -> SessionError:
        """Close the pool after a worker death; the error to raise."""
        process = self._procs[worker]
        process.join(timeout=5.0)
        code = process.exitcode
        label = self._specs[sid].label or f"session-{sid}"
        self.close()
        return SessionError(
            f"session {label!r}: worker {worker} died during step "
            f"{step!r} (exit code {code})")

    def close(self) -> None:
        """Stop every worker and drop the held states (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._states = []
        for conn in self._conns:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        for process in self._procs:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        self._conns = []
        self._procs = []


def derive_seeds(root_seed: int, count: int) -> tuple[int, ...]:
    """``count`` independent shard seeds derived from one root seed.

    Built on ``numpy.random.SeedSequence.spawn``: child *i* is a pure
    function of ``(root_seed, i)``, statistically independent of its
    siblings, and stable across platforms and numpy versions — the same
    ensemble sharded differently still sees the same seeds.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    children = SeedSequence(root_seed).spawn(count)
    return tuple(int(child.generate_state(1, dtype="uint64")[0])
                 for child in children)


def shard_ranges(total: int, shards: int) -> tuple[tuple[int, int], ...]:
    """Split ``range(total)`` into up to ``shards`` contiguous spans.

    Spans are balanced (sizes differ by at most one) and returned in
    order, so concatenating per-span results reproduces the serial
    sequence exactly.  Empty spans are omitted.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, total) if total else 0
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = total // shards + (1 if index < total % shards else 0)
        spans.append((start, start + size))
        start += size
    return tuple(spans)
