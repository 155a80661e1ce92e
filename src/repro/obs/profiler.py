"""Exclusive-time phase profiling for the decomposition hot paths.

The profiler keeps a stack of open phases and charges wall-clock time to
the *innermost* open phase only, so nested sections never double-count:
when ``rank_bound_sets`` calls into the class computation, the time spent
computing cofactors is charged to ``"cofactors"``, not to
``"rank_bound_sets"`` as well.  Phase totals therefore sum to (at most)
the instrumented wall time.

Deep library code reports through the *current* profiler, installed per
engine run with :func:`activate_profiler`; when none is active,
:func:`profile_phase` is a cheap no-op, so the instrumentation costs
almost nothing outside profiled runs.

Cyclic garbage collections are a phase of their own: while a profiler
is active, each collection's time and count go to its ``"gc"`` entry,
and the phase it interrupted is not charged for it (see :func:`_on_gc`).
"""

from __future__ import annotations

import contextvars
import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional


#: Process-global liveness pulse: bumped on every phase enter/exit (and
#: by explicit :func:`pulse` calls at runtime stage boundaries).  The
#: worker heartbeat thread samples it — a beat is only sent while the
#: pulse advances, so a main thread stuck in a sleep or a dead loop goes
#: silent and the scheduler's hang grace can fire.  One module-global
#: integer increment per phase transition; nothing on unprofiled paths.
_PULSE = 0


def pulse() -> None:
    """Bump the liveness pulse (call at coarse progress checkpoints)."""
    global _PULSE
    _PULSE += 1


def pulse_count() -> int:
    """Current liveness pulse value (monotone within a process)."""
    return _PULSE


class PhaseProfiler:
    """Accumulates exclusive wall-clock time and entry counts per phase."""

    def __init__(self) -> None:
        self.times: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # Named event counters (e.g. "exact_cover_fallback") — things
        # worth surfacing that are occurrences, not durations.
        self.events: Dict[str, int] = {}
        # Stack of [phase name, timestamp of the last charge point].
        self._stack: List[list] = []

    # -- phase entry/exit ------------------------------------------------

    def enter(self, name: str) -> None:
        """Open a phase; the enclosing phase stops accumulating."""
        global _PULSE
        _PULSE += 1
        now = perf_counter()
        if self._stack:
            top = self._stack[-1]
            self.times[top[0]] = self.times.get(top[0], 0.0) + now - top[1]
        self._stack.append([name, now])
        self.counts[name] = self.counts.get(name, 0) + 1

    def exit(self) -> None:
        """Close the innermost phase; its parent resumes accumulating."""
        global _PULSE
        _PULSE += 1
        name, since = self._stack.pop()
        now = perf_counter()
        self.times[name] = self.times.get(name, 0.0) + now - since
        if self._stack:
            self._stack[-1][1] = now

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def event(self, name: str, count: int = 1) -> None:
        """Bump a named event counter."""
        self.events[name] = self.events.get(name, 0) + count

    # -- results ---------------------------------------------------------

    def total(self) -> float:
        """Sum of all phase times (instrumented wall clock)."""
        return sum(self.times.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"time_s": ..., "calls": ...}}``, insertion order."""
        return {name: {"time_s": self.times[name],
                       "calls": self.counts.get(name, 0)}
                for name in self.times}


#: The profiler deep library code reports into (None = profiling off).
_CURRENT: contextvars.ContextVar[Optional[PhaseProfiler]] = \
    contextvars.ContextVar("repro_obs_profiler", default=None)

#: Most recently activated profiler (process-global, for cross-thread
#: observation; contextvars are per-context, and the worker heartbeat
#: thread lives outside the engine's context).
_LAST_ACTIVATED: Optional[PhaseProfiler] = None


def current_profiler() -> Optional[PhaseProfiler]:
    """The profiler installed by the innermost :func:`activate_profiler`."""
    return _CURRENT.get()


def current_phase_snapshot() -> Optional[str]:
    """Best-effort name of the innermost open phase of the most recently
    activated profiler, for heartbeat piggybacking.

    Read racily from another thread by design: the stack is only ever
    appended/popped, and a stale or ``None`` answer is harmless
    (heartbeats are observability, not control flow).
    """
    profiler = _LAST_ACTIVATED
    if profiler is None:
        return None
    try:
        stack = profiler._stack
        return stack[-1][0] if stack else None
    except (IndexError, AttributeError):  # pragma: no cover - race window
        return None


@contextmanager
def activate_profiler(profiler: PhaseProfiler) -> Iterator[PhaseProfiler]:
    """Install ``profiler`` as the reporting target for the dynamic extent."""
    global _LAST_ACTIVATED
    token = _CURRENT.set(profiler)
    _LAST_ACTIVATED = profiler
    try:
        yield profiler
    finally:
        _CURRENT.reset(token)


#: perf_counter() when the collection in progress started.
_GC_START = 0.0


def _on_gc(phase: str, info: Dict[str, int]) -> None:
    """``gc.callbacks`` hook: charge a collection to the ``"gc"`` phase.

    Only while a profiler is active in the current context.  The
    innermost open phase's charge point moves forward by the
    collection's time, so that phase's exclusive time leaves it out.
    """
    global _GC_START
    if phase == "start":
        _GC_START = perf_counter()
        return
    profiler = _CURRENT.get()
    if profiler is None:
        return
    elapsed = perf_counter() - _GC_START
    profiler.times["gc"] = profiler.times.get("gc", 0.0) + elapsed
    profiler.counts["gc"] = profiler.counts.get("gc", 0) + 1
    if profiler._stack:
        profiler._stack[-1][1] += elapsed


gc.callbacks.append(_on_gc)


@contextmanager
def profile_phase(name: str) -> Iterator[None]:
    """Charge the enclosed block to ``name`` on the active profiler.

    No-op (beyond one context-variable read) when profiling is inactive,
    so library code can use it unconditionally on hot-ish paths.
    """
    profiler = _CURRENT.get()
    if profiler is None:
        yield
        return
    profiler.enter(name)
    try:
        yield
    finally:
        profiler.exit()


def record_event(name: str, count: int = 1) -> None:
    """Bump a named event on the active profiler (no-op when inactive)."""
    profiler = _CURRENT.get()
    if profiler is not None:
        profiler.event(name, count)
