"""Unit tests for the persistent-worker session pool."""

from __future__ import annotations

import os

import pytest

from repro.errors import ReproError, SessionError, SpawnSafetyError
from repro.parallel import SessionPool, TaskSpec


def make_counter(start: int) -> dict:
    """Session builder: a tiny mutable state."""
    return {"value": start, "steps": 0}


def bump(state: dict, amount: int) -> int:
    """Session step: mutate the held state, return the new value."""
    state["value"] += amount
    state["steps"] += 1
    return state["value"]


def read_steps(state: dict) -> int:
    return state["steps"]


def explode(state: dict) -> int:
    raise RuntimeError("session step failed")


def exit_in_session_one(state: dict) -> int:
    """Session step: the worker holding session 1 dies mid-step."""
    if state["value"] == 10:
        os._exit(3)
    return state["value"]


def counter_sessions(count: int) -> list[TaskSpec]:
    return [TaskSpec(make_counter, args=(10 * sid,), label=f"s{sid}")
            for sid in range(count)]


def drive(workers: int) -> list[list[int]]:
    """Three stateful steps against four sessions; all results."""
    rounds = []
    with SessionPool(counter_sessions(4), workers=workers) as pool:
        rounds.append(pool.step_all(bump, args=[(sid + 1,)
                                                for sid in range(4)]))
        rounds.append(pool.step_all(bump, args=[(1,)] * 4))
        rounds.append(pool.step_all(read_steps))
    return rounds


def test_state_persists_across_steps_serially() -> None:
    first, second, steps = drive(workers=1)
    assert first == [1, 12, 23, 34]
    assert second == [2, 13, 24, 35]
    assert steps == [2, 2, 2, 2]


def test_worker_count_does_not_change_results() -> None:
    assert drive(workers=1) == drive(workers=2)


def test_workers_clamped_to_session_count() -> None:
    with SessionPool(counter_sessions(2), workers=8) as pool:
        assert pool.workers == 2
        assert len(pool) == 2
        assert pool.step_all(bump, args=[(1,), (1,)]) == [1, 11]


def test_step_error_closes_pool_and_raises() -> None:
    pool = SessionPool(counter_sessions(2), workers=2)
    with pytest.raises(RuntimeError, match="session step failed"):
        pool.step_all(explode)
    # The pool shut itself down; further steps are refused.
    with pytest.raises(RuntimeError, match="closed"):
        pool.step_all(bump, args=[(1,), (1,)])


def test_dead_worker_raises_named_session_error() -> None:
    pool = SessionPool(counter_sessions(2), workers=2)
    workers = list(pool._procs)
    with pytest.raises(SessionError) as raised:
        pool.step_all(exit_in_session_one, label="crash-step")
    message = str(raised.value)
    assert "'s1'" in message
    assert "'crash-step'" in message
    assert "exit code 3" in message
    # Still an EOFError, so dead-pipe handlers keep catching it.
    assert isinstance(raised.value, EOFError)
    assert isinstance(raised.value, ReproError)
    # The pool closed every other worker and refuses further steps.
    assert not any(process.is_alive() for process in workers)
    with pytest.raises(RuntimeError, match="closed"):
        pool.step_all(bump, args=[(1,), (1,)])


def test_serial_step_error_propagates() -> None:
    with SessionPool(counter_sessions(1), workers=1) as pool:
        with pytest.raises(RuntimeError, match="session step failed"):
            pool.step_all(explode)


def test_close_is_idempotent_and_context_managed() -> None:
    pool = SessionPool(counter_sessions(2), workers=1)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.step_all(bump, args=[(1,), (1,)])


def test_rejects_empty_sessions_and_bad_workers() -> None:
    with pytest.raises(ValueError, match="at least one session"):
        SessionPool([], workers=1)
    with pytest.raises(ValueError, match="workers"):
        SessionPool(counter_sessions(1), workers=0)
    with pytest.raises(TypeError, match="TaskSpec"):
        SessionPool([make_counter], workers=1)  # type: ignore[list-item]


def test_step_validates_argument_count() -> None:
    with SessionPool(counter_sessions(3), workers=1) as pool:
        with pytest.raises(ValueError, match="argument tuples"):
            pool.step_all(bump, args=[(1,)])


def test_step_fn_spawn_safety_checked_even_serially() -> None:
    with SessionPool(counter_sessions(1), workers=1) as pool:
        with pytest.raises(SpawnSafetyError):
            pool.step_all(lambda state: state)  # repro: allow(R7)
