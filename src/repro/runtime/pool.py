"""The job executor: the only code that starts, watches, kills and reaps
job processes.

:class:`WorkerPool` keeps up to N long-lived worker processes fed over
duplex pipes, one job at a time each.  Workers fork lazily, on the
first job that finds no idle worker, so anything the caller sets
before that (environment variables, armed faults) reaches them.  Every
tier runs its jobs here: a batch run (one pool per
:meth:`~repro.runtime.scheduler.BatchScheduler.run`), a dist node (one
pool per coordinator session) and ``repro serve`` (one pool for the
daemon's life).  The failure policy on top of the pool's futures —
retry, degrade, fail — is :func:`repro.runtime.scheduler.run_ladder`.

Persistent workers stay **bit-identical** to a fresh process per job
because the unit of determinism is the job, not the process: every job
builds its :class:`MultiFunction` afresh and runs a fresh engine whose
per-run memos are cleared on reset.  What persists across jobs is only
the imported modules.  Fault-arrival counters are re-armed per job
(:func:`repro.faults.reset_in_worker`) so ``nth`` chaos schedules stay
deterministic per attempt.

Containment: a worker that crashes, times out or goes heartbeat-silent
is killed (SIGKILL) and reaped *inside the pool*; the submitter's
future fails with a typed :class:`PoolError` (:class:`WorkerCrash` /
:class:`JobTimeout` / :class:`JobHung`) and the pool respawns capacity
on demand.  No worker failure can escape as an unhandled exception in
the dispatcher thread, ``shutdown`` leaves no live worker behind, and
a worker whose parent was killed outright exits on its own.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional

from repro import faults

#: Hard floor for the dispatcher's poll interval (seconds).
POLL_S = 0.05

#: Default cap applied to auto-detected worker counts.
AUTO_WORKER_CAP = 8

#: How often a worker checks that its parent is still alive (seconds).
_ORPHAN_CHECK_S = 0.5

#: Held while a worker forks, and by the ladder's fallback: a child
#: forked while a parent thread imports a module inherits that import
#: lock, held by a thread it does not have, and hangs on the import.
FORK_LOCK = threading.Lock()


def resolve_workers(requested: Optional[int],
                    cap: int = AUTO_WORKER_CAP) -> "tuple[int, Optional[str]]":
    """Clamp a requested worker count to something runnable.

    ``None`` means "auto" (CPU count capped at ``cap``); zero and
    negative values also clamp to auto but return a human-readable note
    so CLIs can tell the user what happened instead of misbehaving.
    """
    auto = max(1, min(os.cpu_count() or 1, cap))
    if requested is None:
        return auto, None
    if requested <= 0:
        return auto, (f"worker count {requested} clamped to "
                      f"auto-detected {auto} (CPU count, capped at {cap})")
    return requested, None


# ---------------------------------------------------------------------
# Progress events (the callback API shared by batch, serve and dist)
# ---------------------------------------------------------------------

@dataclass
class ProgressEvent:
    """One observable step in a job's life, for streaming consumers.

    Kinds: ``dispatch`` (a worker starts the attempt), ``beat`` (worker
    liveness, with the engine phase piggybacked), ``retry`` (a crashed
    attempt is being retried), ``result`` (the job settled; ``status``
    carries ok/degraded/failed).
    """

    kind: str
    job_id: str
    index: int = -1
    attempt: int = 1
    phase: Optional[str] = None
    beats: int = 0
    status: Optional[str] = None
    detail: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        data = {"event": self.kind, "job_id": self.job_id,
                "attempt": self.attempt}
        if self.index >= 0:
            data["index"] = self.index
        if self.phase is not None:
            data["phase"] = self.phase
        if self.beats:
            data["beats"] = self.beats
        if self.status is not None:
            data["status"] = self.status
        if self.detail is not None:
            data["detail"] = self.detail
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgressEvent":
        """Inverse of :meth:`as_dict` — how the dist tier rehydrates
        events relayed over the wire into the same callback API."""
        return cls(kind=str(data.get("event", "?")),
                   job_id=str(data.get("job_id", "?")),
                   index=int(data.get("index", -1)),
                   attempt=int(data.get("attempt", 1)),
                   phase=data.get("phase"),
                   beats=int(data.get("beats", 0)),
                   status=data.get("status"),
                   detail=data.get("detail"))


#: Signature of a progress-event sink.
EventSink = Callable[[ProgressEvent], None]


def emit_event(sink: Optional[EventSink], event: ProgressEvent) -> None:
    """Deliver ``event`` to ``sink``; a sink that raises is dropped for
    the event (observability must never break execution)."""
    if sink is None:
        return
    try:
        sink(event)
    except Exception:  # noqa: BLE001 — observer errors are not ours
        pass


# ---------------------------------------------------------------------
# Pipe/process plumbing
# ---------------------------------------------------------------------

def drain_messages(entry: Any) -> int:
    """Consume everything buffered on ``entry.conn``.

    Heartbeat messages update the liveness bookkeeping
    (``last_beat``/``beats``/``phase`` attributes); the first
    non-heartbeat message sticks to ``entry.payload``.  Returns the
    number of new beats seen (the dispatcher turns those into ``beat``
    progress events).
    """
    new_beats = 0
    try:
        while entry.payload is None and entry.conn.poll():
            message = entry.conn.recv()
            if isinstance(message, dict) and message.get("beat"):
                entry.last_beat = time.monotonic()
                entry.beats += 1
                new_beats += 1
                entry.phase = message.get("phase") or entry.phase
            else:
                entry.payload = message
    except (EOFError, OSError):
        pass  # process died mid-send: handled as a crash by the caller
    return new_beats


def reap_process(process: multiprocessing.Process, conn: Any,
                 timeout: float = 1.0) -> None:
    """Join a finished worker; escalate to a kill if it lingers."""
    process.join(timeout=timeout)
    if process.is_alive():
        kill_process(process, conn, timeout)
        return
    try:
        conn.close()
    except OSError:
        pass


def kill_process(process: multiprocessing.Process, conn: Any,
                 timeout: float = 1.0) -> None:
    """SIGKILL a worker, reap it and close its pipe end.  Never SIGTERM:
    a forked worker runs its parent's handler (a dist node's closes the
    node's listener; serve's stops the daemon)."""
    process.kill()
    process.join(timeout=timeout)
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------
# Typed pool failures
# ---------------------------------------------------------------------

class PoolError(RuntimeError):
    """Base class for worker-pool job failures."""


class WorkerCrash(PoolError):
    """The worker process died without delivering a payload."""

    def __init__(self, exitcode: Optional[int]) -> None:
        super().__init__(f"worker crashed (exit code {exitcode})")
        self.exitcode = exitcode


class JobTimeout(PoolError):
    """The job exceeded its wall-clock budget and the worker was
    killed."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(f"timeout after {timeout_s:.1f}s")
        self.timeout_s = timeout_s


class JobHung(PoolError):
    """Heartbeats went silent past the hang grace; the worker was
    killed."""

    def __init__(self, silent_s: float, phase: Optional[str]) -> None:
        detail = f" in phase {phase!r}" if phase else ""
        super().__init__(f"hung (no heartbeat for {silent_s:.1f}s"
                         f"{detail})")
        self.silent_s = silent_s
        self.phase = phase


class PoolClosed(PoolError):
    """Submitted to a pool that is shutting down."""


# ---------------------------------------------------------------------
# Persistent worker side
# ---------------------------------------------------------------------

def _exit_with_parent() -> None:
    """End this worker process once its parent is gone.

    A killed parent cannot stop its workers, and each worker holds
    copies of its siblings' pipe ends, so the parent's death never
    reads as EOF; a watchdog thread notices the new parent pid instead
    (mid-job too, where a send to the dead parent could block).
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_ORPHAN_CHECK_S)
        os._exit(0)

    threading.Thread(target=watch, name="repro-orphan-watch",
                     daemon=True).start()


def pool_worker_entry(conn: Any,
                      heartbeat_s: Optional[float] = 1.0) -> None:
    """Long-lived worker loop: receive a job, run it, ship the payload.

    Each job re-arms fault counters (``nth`` determinism per attempt)
    and runs through :func:`repro.runtime.jobspec.execute_job`, with
    liveness beats on the same pipe while it runs; what persists is the
    process (imports).  A ``{"stop": True}`` message (or a closed pipe)
    ends the loop.
    """
    from repro.runtime import jobspec

    _exit_with_parent()
    faults.reset_in_worker()
    send_lock = threading.Lock()

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if not isinstance(message, dict) or message.get("stop"):
            break
        job = message["job"]
        attempt = int(message.get("attempt", 1))
        seq = message.get("seq")
        faults.reset_in_worker()
        stop = None
        if heartbeat_s is not None and heartbeat_s > 0:
            stop = jobspec.start_beat_thread(conn, send_lock, heartbeat_s)
        try:
            payload = jobspec.execute_job(job, attempt)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            payload = {"status": "failed",
                       "error": f"{type(exc).__name__}: {exc}"}
        if stop is not None:
            stop.set()
        envelope = {"seq": seq, "payload": payload}
        try:
            with send_lock:
                conn.send(envelope)
        except (BrokenPipeError, OSError):
            return
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------
# Persistent pool (parent side)
# ---------------------------------------------------------------------

@dataclass
class _Ticket:
    """One submitted job waiting for (or holding) a worker."""

    job: Dict[str, Any]
    future: Future
    timeout: Optional[float]
    attempt: int = 1
    on_event: Optional[EventSink] = None
    on_start: Optional[Callable[[int], None]] = None
    seq: int = 0


@dataclass
class _Worker:
    """One persistent worker process and its in-flight bookkeeping."""

    process: multiprocessing.Process
    conn: Any
    ticket: Optional[_Ticket] = None
    started_at: float = 0.0
    deadline: Optional[float] = None
    last_beat: float = 0.0
    beats: int = 0
    phase: Optional[str] = None
    payload: Any = None

    @property
    def busy(self) -> bool:
        return self.ticket is not None


class WorkerPool:
    """N long-lived worker processes multiplexing jobs from a queue.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving to
    the worker's payload dict (``{"status": ..., "result": ...}``) or
    failing with a typed :class:`PoolError`.  A dispatcher thread owns
    all worker state and resolves the futures, so their done-callbacks
    run there and must not block.  Submitters only touch the queue
    under a lock, so ``submit`` is safe from any thread (an asyncio
    loop included — it never blocks).  Queued jobs reach workers in
    submission order.

    ``heartbeat_s`` / ``hang_grace_s`` drive hang detection,
    ``default_timeout`` bounds jobs that do not carry their own.
    Workers fork where the platform can, else spawn.
    """

    def __init__(self, workers: Optional[int] = None, *,
                 heartbeat_s: Optional[float] = 1.0,
                 hang_grace_s: Optional[float] = None,
                 default_timeout: Optional[float] = None) -> None:
        self.workers, _ = resolve_workers(workers)
        self.heartbeat_s = heartbeat_s
        self.hang_grace_s = hang_grace_s
        self.default_timeout = default_timeout
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._lock = threading.Lock()
        self._queue: "deque[_Ticket]" = deque()
        self._pool: List[_Worker] = []
        self._seq = 0
        self._closed = False
        self._drain = True
        self.dispatched = 0
        self.completed = 0
        self.crashes = 0
        self.timeouts = 0
        self.hangs = 0
        self.respawns = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-pool", daemon=True)
        self._thread.start()

    # -- public API -----------------------------------------------------

    def submit(self, job: Dict[str, Any], *, attempt: int = 1,
               timeout: Optional[float] = None,
               on_event: Optional[EventSink] = None,
               on_start: Optional[Callable[[int], None]] = None
               ) -> Future:
        """Queue ``job`` for the next idle worker; never blocks.

        ``attempt`` (1-based) reaches the worker, where ``crash:<n>``
        test hooks count it.  ``on_start(attempt)`` runs on the
        dispatcher thread just before the job is handed to a worker;
        if it raises, the job never reaches one and the future fails
        with that exception."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise PoolClosed("pool is shut down")
            ticket = _Ticket(job=job, future=future,
                             timeout=(self.default_timeout
                                      if timeout is None else timeout),
                             attempt=attempt, on_event=on_event,
                             on_start=on_start)
            self._queue.append(ticket)
        self._wake()
        return future

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` lets in-flight jobs finish (queued ones still
        run) before workers are stopped; ``drain=False`` kills workers
        immediately and fails pending futures with :class:`PoolClosed`.
        Idempotent.
        """
        with self._lock:
            self._closed = True
            self._drain = drain
        self._wake()
        self._thread.join(timeout=timeout)
        # Belt and braces: whatever state the dispatcher died in, no
        # worker may outlive the pool.
        for worker in list(self._pool):
            kill_process(worker.process, worker.conn)

    def stats(self) -> Dict[str, Any]:
        """Point-in-time counters for the metrics endpoint."""
        with self._lock:
            busy = sum(1 for w in self._pool if w.busy)
            pids = [w.process.pid for w in self._pool
                    if w.process.pid is not None]
            queued = len(self._queue)
        return {
            "workers": self.workers,
            "alive": len(pids),
            "busy": busy,
            "queued": queued,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "hangs": self.hangs,
            "respawns": self.respawns,
            "pids": pids,
        }

    # -- dispatcher internals -------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def _spawn(self) -> Optional[_Worker]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=pool_worker_entry,
            args=(child_conn, self.heartbeat_s),
            daemon=True)
        try:
            with FORK_LOCK:
                process.start()
        except OSError:
            return None
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _assign(self) -> None:
        """Hand queued tickets to idle (live) workers, spawning up to
        the configured width."""
        while True:
            with self._lock:
                if not self._queue:
                    return
                idle = next((w for w in self._pool if not w.busy), None)
                can_spawn = idle is None and len(self._pool) < self.workers
                if idle is None and not can_spawn:
                    return
                ticket = self._queue.popleft()
            if ticket.on_start is not None:
                start, ticket.on_start = ticket.on_start, None
                try:
                    start(ticket.attempt)
                except Exception as exc:  # noqa: BLE001 — submitter's call
                    if not ticket.future.cancelled():
                        ticket.future.set_exception(exc)
                    continue
            if idle is not None and not idle.process.is_alive():
                # An idle worker that died (external SIGKILL, OOM
                # killer) is silently replaced — idleness means no job
                # was lost, only warmth.
                with self._lock:
                    self._pool.remove(idle)
                reap_process(idle.process, idle.conn)
                self.respawns += 1
                idle = None
            if idle is None:
                idle = self._spawn()
                if idle is None:
                    # Could not spawn (fd/process exhaustion): fail the
                    # ticket rather than wedging the queue.
                    ticket.future.set_exception(
                        WorkerCrash(None))
                    continue
                with self._lock:
                    self._pool.append(idle)
            self._seq += 1
            ticket.seq = self._seq
            now = time.monotonic()
            idle.ticket = ticket
            idle.started_at = now
            idle.last_beat = now
            idle.beats = 0
            idle.phase = None
            idle.payload = None
            idle.deadline = (now + ticket.timeout
                             if ticket.timeout is not None else None)
            try:
                idle.conn.send({"job": ticket.job,
                                "attempt": ticket.attempt,
                                "seq": ticket.seq})
            except (BrokenPipeError, OSError):
                # Worker died between jobs: replace it and retry the
                # ticket on a fresh one.
                with self._lock:
                    self._pool.remove(idle)
                    self._queue.appendleft(ticket)
                kill_process(idle.process, idle.conn)
                self.respawns += 1
                continue
            self.dispatched += 1
            emit_event(ticket.on_event, ProgressEvent(
                kind="dispatch", job_id=ticket.job.get("job_id", "?"),
                attempt=ticket.attempt))

    def _fail(self, worker: _Worker, error: PoolError,
              kill: bool) -> None:
        """Settle a broken worker: fail its ticket, drop the process."""
        ticket = worker.ticket
        worker.ticket = None
        with self._lock:
            if worker in self._pool:
                self._pool.remove(worker)
        (kill_process if kill else reap_process)(worker.process,
                                                 worker.conn)
        self.respawns += 1
        if ticket is not None and not ticket.future.cancelled():
            ticket.future.set_exception(error)

    def _settle(self, worker: _Worker) -> None:
        """Resolve one busy worker: payload, death, timeout or hang."""
        ticket = worker.ticket
        if ticket is None:
            return
        now = time.monotonic()
        if worker.payload is not None:
            envelope = worker.payload
            worker.payload = None
            worker.ticket = None
            self.completed += 1
            payload = (envelope.get("payload")
                       if isinstance(envelope, dict) else envelope)
            if not ticket.future.cancelled():
                ticket.future.set_result(payload)
            return
        if not worker.process.is_alive():
            # Drain once more — a fast exit can leave the payload
            # buffered in the pipe.
            drain_messages(worker)
            if worker.payload is not None:
                self._settle(worker)
                return
            self.crashes += 1
            self._fail(worker, WorkerCrash(worker.process.exitcode),
                       kill=False)
            return
        if worker.deadline is not None and now > worker.deadline:
            self.timeouts += 1
            self._fail(worker, JobTimeout(ticket.timeout or 0.0),
                       kill=True)
            return
        if (self.hang_grace_s is not None and self.heartbeat_s
                and now - worker.last_beat > self.hang_grace_s):
            self.hangs += 1
            self._fail(worker,
                       JobHung(now - worker.last_beat, worker.phase),
                       kill=True)

    def _loop(self) -> None:
        while True:
            self._assign()
            with self._lock:
                closed = self._closed
                drain = self._drain
                busy = [w for w in self._pool if w.busy]
                queued = len(self._queue)
            if closed and not drain:
                self._abort()
                return
            if closed and not busy and not queued:
                self._stop_workers()
                return
            budget = POLL_S * 4
            now = time.monotonic()
            deadlines = [w.deadline - now for w in busy
                         if w.deadline is not None]
            if self.hang_grace_s is not None and busy:
                deadlines.append(min(w.last_beat for w in busy)
                                 + self.hang_grace_s - now)
            if deadlines:
                budget = min(budget, max(POLL_S, min(deadlines)))
            try:
                ready = connection_wait(
                    [w.conn for w in busy] + [self._wake_r],
                    timeout=max(POLL_S, budget))
            except OSError:
                ready = []
            if self._wake_r in ready:
                try:
                    while self._wake_r.recv(4096):
                        pass
                except (BlockingIOError, OSError):
                    pass
            for worker in busy:
                if worker.conn in ready and worker.payload is None:
                    new_beats = drain_messages(worker)
                    ticket = worker.ticket
                    if new_beats and ticket is not None:
                        emit_event(ticket.on_event, ProgressEvent(
                            kind="beat",
                            job_id=ticket.job.get("job_id", "?"),
                            attempt=ticket.attempt,
                            phase=worker.phase, beats=worker.beats))
                self._settle(worker)

    def _abort(self) -> None:
        """Immediate shutdown: kill everyone, fail everything."""
        with self._lock:
            pool = list(self._pool)
            self._pool.clear()
            queue = list(self._queue)
            self._queue.clear()
        for worker in pool:
            ticket = worker.ticket
            worker.ticket = None
            kill_process(worker.process, worker.conn)
            if ticket is not None and not ticket.future.cancelled():
                ticket.future.set_exception(PoolClosed("pool aborted"))
        for ticket in queue:
            if not ticket.future.cancelled():
                ticket.future.set_exception(PoolClosed("pool aborted"))

    def _stop_workers(self) -> None:
        """Graceful stop: ask idle workers to exit, then reap."""
        with self._lock:
            pool = list(self._pool)
            self._pool.clear()
        for worker in pool:
            try:
                worker.conn.send({"stop": True})
            except (BrokenPipeError, OSError):
                pass
        for worker in pool:
            reap_process(worker.process, worker.conn)
