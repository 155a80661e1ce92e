"""The one failure ladder, and the batch driver over it.

Every tier runs jobs (see :mod:`repro.runtime.jobspec`) on a
:class:`~repro.runtime.pool.WorkerPool`, the only code that starts,
watches, kills and reaps job processes.  :func:`run_ladder` is the
failure policy over the pool's futures; batch (:class:`BatchScheduler`),
``repro serve`` and dist nodes all settle their jobs through it, so a
job reaches the same status, error text and record on every tier:

* **timeout** — the pool kills the worker and the job immediately
  *degrades*: the parent re-runs it through the trivial Shannon/MUX
  mapping (:func:`degraded_record`), which is bounded by the BDD size
  and deterministic.  No retry — a search that timed out once will time
  out again.
* **hang** (heartbeats enabled and silent for ``hang_grace_s``) — same
  as a timeout, without waiting for the full wall-clock budget.  Workers
  beat while the engine makes progress (phase transitions bump a
  liveness pulse; the beat thread only speaks while the pulse
  advances), so a worker stuck in a sleep or a dead loop goes silent
  and is killed early, while a *slow but alive* worker keeps beating
  and is left to its wall-clock budget.  No retry — a hang is not
  transient.
* **worker crash** (process died without a result) — retried after the
  seeded jittered linear backoff of :func:`retry_backoff` up to
  ``retries`` times, then degraded.  Crashes are the transient class
  (OOM kills, signals), so retrying is worth it; the jitter spreads
  herd retries after a shared-cause crash.  A fault injected as an
  attempt is handed to a worker (the ``on_dispatch`` callback, where
  serve's ``server.dispatch`` site fires) counts as a crash.
* **worker exception** (job raised) — deterministic, so no retry: the
  job degrades when the function can still be built, otherwise it is
  marked ``failed`` (e.g. an unreadable PLA file).

With ``degrade=False`` every degrade becomes ``failed`` instead.

:class:`BatchScheduler` is a thin driver over the ladder: a cache
pre-pass, one pool per :meth:`~BatchScheduler.run` with at most
``workers`` attempts in flight, ``cache.put`` on ok, and
:class:`JobResult` rows in submission order, each with its own
observability record (queue wait, exec time, cache hit, retry count,
heartbeat count).  :meth:`BatchScheduler.run_job` is the same per-job
path for one job on a caller's long-lived pool; a dist node runs every
shipped job through it.

With a :class:`~repro.runtime.cache.ResultCache` attached, the parent
builds each function up front, keys it by content
(:meth:`MultiFunction.canonical_key` + flow + engine config + code
version) and skips dispatch entirely on a hit; on a miss the built
function ships to the worker in wire form so it is not rebuilt.

Chaos containment: the parent-side build and the degradation fallback
run under :func:`repro.faults.suppressed`, so injected worker faults
(``worker.mid_decomp``, ``bdd.ite``, ``kernel.dispatch``) can never
take down the parent through its own recovery paths.  Parent-side
*storage* faults (``cache.write``, ``journal.append``) stay live — they
exercise the crash-safety story (journal + ``--resume``), not the
containment one.  ``run`` kills and reaps every worker on the way out,
including on ``KeyboardInterrupt`` — no orphans.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.runtime import jobspec
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.pool import (
    FORK_LOCK,
    EventSink,
    JobHung,
    JobTimeout,
    PoolClosed,
    ProgressEvent,
    WorkerCrash,
    WorkerPool,
    emit_event,
    resolve_workers,
)


@dataclass
class JobResult:
    """Outcome of one job on any tier, with its observability record."""

    job_id: str
    source: str
    flow: str
    #: "ok" | "degraded" | "failed".
    status: str
    #: The flow's result record (None only when status == "failed").
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cache_hit: bool = False
    degraded: bool = False
    #: Position in the submitted job list (stable across resume merges).
    index: int = -1
    #: Seconds between batch start and first dispatch of this job.
    queue_wait_s: float = 0.0
    #: Wall-clock seconds of the attempt that produced the outcome.
    exec_s: float = 0.0
    #: Crash retries consumed (0 on a clean first attempt).
    retries: int = 0
    #: Heartbeats received from the attempt that produced the outcome.
    beats: int = 0
    #: True when the job was killed for heartbeat silence (not timeout).
    hung: bool = False

    def as_dict(self, include_blif: bool = False) -> Dict[str, Any]:
        """JSON-able row for the batch JSONL output.

        BLIF text is dropped by default to keep rows one-line small;
        the full record stays on :attr:`result`.
        """
        record = self.result
        if record is not None and not include_blif:
            record = {k: v for k, v in record.items() if k != "blif"}
            for driver in ("mulopII", "mulop_dc"):
                if isinstance(record.get(driver), dict):
                    record[driver] = {k: v
                                      for k, v in record[driver].items()
                                      if k != "blif"}
        return {
            "job_id": self.job_id,
            "source": self.source,
            "flow": self.flow,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "index": self.index,
            "queue_wait_s": round(self.queue_wait_s, 6),
            "exec_s": round(self.exec_s, 6),
            "retries": self.retries,
            "beats": self.beats,
            "hung": self.hung,
            "result": record,
            "error": self.error,
        }


def _record_quarantined(record: Any) -> int:
    """Quarantined-output count inside one result record (compare-flow
    nesting included)."""
    if not isinstance(record, dict):
        return 0
    total = 0
    engine = record.get("engine")
    if isinstance(engine, dict):
        names = engine.get("quarantined_outputs")
        if isinstance(names, (list, tuple)):
            total += len(names)
    for driver in ("mulopII", "mulop_dc"):
        total += _record_quarantined(record.get(driver))
    return total


def summarize_rows(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Batch totals over JSONL rows (``JobResult.as_dict`` shape).

    Row-based so resumed batches can summarize journal-replayed rows and
    freshly computed ones uniformly.
    """
    return {
        "jobs": len(rows),
        "ok": sum(r.get("status") == "ok" for r in rows),
        "degraded": sum(r.get("status") == "degraded" for r in rows),
        "failed": sum(r.get("status") == "failed" for r in rows),
        "cache_hits": sum(bool(r.get("cache_hit")) for r in rows),
        "retries": sum(int(r.get("retries") or 0) for r in rows),
        "hung": sum(bool(r.get("hung")) for r in rows),
        "quarantined_outputs": sum(_record_quarantined(r.get("result"))
                                   for r in rows),
        "total_exec_s": round(sum(float(r.get("exec_s") or 0.0)
                                  for r in rows), 6),
    }


def summarize(results: List[JobResult]) -> Dict[str, Any]:
    """Batch totals for the metrics document and the CLI summary line."""
    return summarize_rows([r.as_dict() for r in results])


# ---------------------------------------------------------------------
# The failure ladder
# ---------------------------------------------------------------------

def retry_backoff(attempt: int, base_s: float,
                  rng: random.Random) -> float:
    """Jittered linear backoff: ``base * attempt * uniform(0.5, 1.5)``
    — the one retry curve, for job crash retries and dist RPC retries
    alike."""
    return base_s * max(1, attempt) * rng.uniform(0.5, 1.5)


def _result(job: Dict[str, Any], **fields: Any) -> JobResult:
    return JobResult(job_id=job["job_id"],
                     source=jobspec.source_label(job["source"]),
                     flow=job["flow"], **fields)


def prepare_job(index: int, job: Dict[str, Any],
                cache: Optional[ResultCache]
                ) -> Tuple[Optional[JobResult], Any, Optional[str]]:
    """The parent-side cache pre-pass of batch and dist:
    ``(settled row or None, function, key)``.

    Builds the function, settles a bad source as ``failed`` and a cache
    hit as ``ok``; otherwise attaches the ``wire`` payload so the worker
    does not rebuild, and returns the function and key for the ladder.
    """
    try:
        # The parent-side build walks the same BDD/kernel code as a
        # worker; suppress injected faults so worker-targeted chaos
        # (bdd.ite, kernel.dispatch) cannot crash the parent.
        with faults.suppressed():
            func = jobspec.build_function(job["source"])
    except Exception as exc:  # noqa: BLE001 — bad source: report it
        failed = _result(job, status="failed", index=index,
                         error=f"{type(exc).__name__}: {exc}")
        return failed, None, None
    key = cache_key(func.canonical_key(), job["flow"], job["config"],
                    dsd=job.get("dsd", True))
    record = cache.get(key) if cache is not None else None
    if record is not None:
        return _result(job, status="ok", result=record,
                       cache_hit=True, index=index), func, key
    job["wire"] = func.to_wire()
    return None, func, key


#: Ladder fallbacks run here, off the pool's dispatcher thread.
_FALLBACKS = ThreadPoolExecutor(1, thread_name_prefix="repro-fallback")


def fallback(job: Dict[str, Any], reason: str, func: Any = None, *,
             degrade: bool = True,
             res: Optional[JobResult] = None) -> JobResult:
    """The ladder's last rung: settle ``job`` (into ``res``) on the
    verified trivial mapping, or as ``failed`` when degradation is off
    or the fallback itself fails.  ``reason`` becomes the error text."""
    res = res or _result(job, status="failed")
    res.status, res.error = "failed", reason
    if not degrade:
        return res
    started = time.monotonic()
    try:
        # Recovery must succeed even under chaos: the fallback walks
        # engine/BDD code where worker faults are armed, and a fault
        # here would turn a contained degrade into a parent crash.
        # Fallbacks share process-wide memo state, so they run one at
        # a time, and never while a worker forks (see FORK_LOCK).
        with FORK_LOCK, faults.suppressed():
            res.result = degraded_record(job, func=func)
        res.status = "degraded"
        res.degraded = True
    except Exception as exc:  # noqa: BLE001 — even fallback failed
        res.error = (f"{reason}; fallback failed: "
                     f"{type(exc).__name__}: {exc}")
    res.exec_s += time.monotonic() - started
    return res


def run_ladder(pool: WorkerPool, job: Dict[str, Any], *,
               func: Any = None, timeout: Optional[float] = None,
               retries: int = 1, degrade: bool = True,
               backoff_s: float = 0.25,
               rng: Optional[random.Random] = None,
               on_dispatch: Optional[Callable[[int], None]] = None,
               on_event: Optional[EventSink] = None,
               res: Optional[JobResult] = None) -> "Future[JobResult]":
    """Start ``job`` on ``pool``; the future resolves to its settled row
    (``res`` when given).  Never blocks: the pool's futures drive each
    step on its dispatcher thread and a crash retry waits on a timer.

    ``on_dispatch(attempt)`` fires on the dispatcher thread just before
    each attempt reaches a worker; a fault injected there counts as a
    crash.  ``on_event`` receives the pool's ``dispatch`` and ``beat``
    events and the ladder's ``retry`` events.  ``func`` is the
    parent-built function the fallback maps (rebuilt from the source
    when None) and ``rng`` the backoff jitter stream.
    """
    ladder = _Ladder(pool, job, func, timeout, retries, degrade,
                     backoff_s, rng or random.Random(0), on_dispatch,
                     on_event, res or _result(job, status="failed"))
    ladder.submit(1)
    return ladder.done


class _Ladder:
    """One job's walk down the ladder.  Methods, not closures: closures
    that call each other form a reference cycle, which would keep every
    settled job's function and record alive until a full collection."""

    def __init__(self, pool: WorkerPool, job: Dict[str, Any], func: Any,
                 timeout: Optional[float], retries: int, degrade: bool,
                 backoff_s: float, rng: random.Random,
                 on_dispatch: Optional[Callable[[int], None]],
                 on_event: Optional[EventSink], res: JobResult) -> None:
        self.pool, self.job, self.func = pool, job, func
        self.timeout, self.retries, self.degrade = timeout, retries, degrade
        self.backoff_s, self.rng = backoff_s, rng
        self.on_dispatch, self.on_event, self.res = on_dispatch, on_event, res
        self.started = time.monotonic()
        self.done: Future = Future()
        # A running future cannot be cancelled, so a waiter that gives
        # up (a cancelled serve flight) never races the ladder to it.
        self.done.set_running_or_notify_cancel()

    def sink(self, event: ProgressEvent) -> None:
        if event.kind == "beat":
            self.res.beats = event.beats
        emit_event(self.on_event, event)

    def start(self, attempt: int) -> None:
        self.started = time.monotonic()
        self.res.beats = 0
        if self.on_dispatch is not None:
            self.on_dispatch(attempt)

    def submit(self, attempt: int) -> None:
        try:
            future = self.pool.submit(self.job, attempt=attempt,
                                      timeout=self.timeout,
                                      on_event=self.sink,
                                      on_start=self.start)
        except PoolClosed:
            self.res.error = "pool closed"
            self.done.set_result(self.res)
            return
        future.add_done_callback(functools.partial(self.settle, attempt))

    def settle(self, attempt: int, future: Future) -> None:
        res, error = self.res, future.exception()
        try:
            if error is None:
                payload = future.result()
                # A worker exception (or a verification mismatch) is
                # deterministic: degrade, no retry.
                reason = (None if payload.get("status") == "ok"
                          else payload.get("error", "job failed"))
            elif isinstance(error, (WorkerCrash, faults.FaultInjected,
                                    MemoryError)):
                if res.retries < self.retries:
                    res.retries += 1
                    self.sink(ProgressEvent(
                        kind="retry", job_id=res.job_id,
                        attempt=attempt + 1, detail=str(error)))
                    timer = threading.Timer(
                        retry_backoff(res.retries, self.backoff_s,
                                      self.rng),
                        self.submit, (attempt + 1,))
                    timer.daemon = True
                    timer.start()
                    return
                reason = f"{error}, retries exhausted"
            elif isinstance(error, (JobTimeout, JobHung)):
                res.hung = isinstance(error, JobHung)
                reason = str(error)
            elif isinstance(error, PoolClosed):
                res.error = "pool closed"
                self.done.set_result(res)
                return
            else:
                raise error
            res.exec_s = time.monotonic() - self.started
            if reason is None:
                res.status, res.result = "ok", payload["result"]
                self.done.set_result(res)
                return
            _FALLBACKS.submit(
                fallback, self.job, reason, self.func,
                degrade=self.degrade, res=res).add_done_callback(
                    lambda rung: self.done.set_result(rung.result()))
        except BaseException as exc:  # noqa: BLE001 — never strand a waiter
            if not self.done.done():
                self.done.set_exception(exc)


# ---------------------------------------------------------------------
# The batch driver
# ---------------------------------------------------------------------

class BatchScheduler:
    """Run many jobs on a worker pool with bounded failure modes.

    Parameters
    ----------
    workers:
        Concurrent worker processes.  ``None`` and values <= 0 clamp to
        the auto-detected count (CPU count, capped at 8).
    timeout:
        Per-job wall-clock budget in seconds (None = unbounded).
    retries:
        Crash retries per job before degrading.
    cache:
        Optional :class:`ResultCache`; hits skip dispatch entirely.
    degrade:
        When False, timeouts/hangs/crashes mark the job ``failed``
        instead of falling back to the trivial mapping.
    retry_backoff_s:
        Base of the jittered linear crash-retry backoff
        (:func:`retry_backoff`).
    backoff_seed:
        Seed for the backoff jitter stream (deterministic schedules in
        tests).
    heartbeat_s:
        Interval at which workers report liveness (None disables the
        beat thread entirely).
    hang_grace_s:
        Kill a worker silent for this long and degrade its job without
        retry.  None (default) disables hang detection — only the hard
        wall-clock ``timeout`` applies.  Must comfortably exceed
        ``heartbeat_s``.
    """

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 cache: Optional[ResultCache] = None,
                 degrade: bool = True,
                 retry_backoff_s: float = 0.25,
                 backoff_seed: int = 0,
                 heartbeat_s: Optional[float] = 1.0,
                 hang_grace_s: Optional[float] = None) -> None:
        # None / zero / negative all clamp to the auto-detected count
        # (CPU count capped at 8) — see runtime.pool.resolve_workers.
        self.workers, _ = resolve_workers(workers)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.cache = cache
        self.degrade = degrade
        self.retry_backoff_s = retry_backoff_s
        self.heartbeat_s = heartbeat_s
        self.hang_grace_s = hang_grace_s
        self._rng = random.Random(backoff_seed)
        #: Sub-ISF memo counters summed over workers' payloads for the
        #: most recent :meth:`run` (rows never carry them — see
        #: :mod:`repro.decomp.submemo`).
        self.submemo_totals: Dict[str, int] = {}

    def open_pool(self) -> WorkerPool:
        """A pool for this scheduler's jobs.  Its ``workers`` processes
        fork on first use and keep no warm function LRU: a batch's jobs
        rarely share a source, and the LRU would only cost memory."""
        return WorkerPool(self.workers, heartbeat_s=self.heartbeat_s,
                          hang_grace_s=self.hang_grace_s, warm_limit=0)

    # -- public entry ---------------------------------------------------

    def run(self, jobs: List[Dict[str, Any]],
            on_result: Optional[Callable[[JobResult], None]] = None,
            on_dispatch: Optional[Callable[[int, int], None]] = None,
            on_event: Optional[EventSink] = None) -> List[JobResult]:
        """Execute ``jobs``; results are in submission order.

        ``on_dispatch(index, attempt)`` fires on the pool's dispatcher
        thread just before each attempt reaches a worker (the journal's
        start record); ``on_result`` fires on the calling thread as each
        job settles, out of submission order.  ``on_event`` receives the
        full :class:`ProgressEvent` stream (``dispatch``, ``beat`` with
        the engine phase, ``retry``, ``result``) from the pool's and
        the ladders' threads — the same API the service tier streams to
        clients, so batch consumers and streaming endpoints share one
        progress contract.
        """
        started = time.monotonic()
        results: List[Optional[JobResult]] = [None] * len(jobs)
        self.submemo_totals = {}

        def finish(res: JobResult, key: Optional[str]) -> None:
            results[res.index] = self._settle(res, key, on_event)
            if on_result is not None:
                on_result(res)

        todo = []
        for index, job in enumerate(jobs):
            res, func, key = self._prepare(index, job)
            if res is not None:
                finish(res, key)
            else:
                todo.append((index, func, key))
        if todo:
            # Every job queues on the pool at once; its ``workers``
            # processes bound the attempts in flight, and a job in
            # crash-retry backoff holds none of them.
            pool = self.open_pool()
            settled = False
            try:
                ladders = {
                    self._execute(pool, index, jobs[index], func, started,
                                  on_dispatch, on_event): key
                    for index, func, key in todo}
                for ladder in as_completed(ladders):
                    finish(ladder.result(), ladders[ladder])
                settled = True
            finally:
                # Every job settled: stop the idle workers.  Anything
                # else (a callback raised, ^C): kill them.  Either way
                # no worker outlives run().
                pool.shutdown(drain=settled)
                self.submemo_totals = dict(pool.submemo_totals)
        return [r for r in results if r is not None]

    def run_job(self, pool: WorkerPool, job: Dict[str, Any],
                index: int = 0,
                on_event: Optional[EventSink] = None) -> JobResult:
        """One job on the caller's ``pool`` through the per-job path of
        :meth:`run` (blocking): cache lookup, the ladder, ``cache.put``
        on ok and the ``result`` event.  A dist node runs every shipped
        job through this, so its rows are :class:`JobResult` rows by
        construction.  The cache must be safe to share between threads
        when callers run jobs concurrently."""
        started = time.monotonic()
        res, func, key = self._prepare(index, job)
        if res is None:
            res = self._execute(pool, index, job, func, started, None,
                                on_event).result()
        return self._settle(res, key, on_event)

    # -- per-job steps --------------------------------------------------

    def _prepare(self, index: int, job: Dict[str, Any]
                 ) -> Tuple[Optional[JobResult], Any, Optional[str]]:
        """:func:`prepare_job` when a cache is attached; without one
        nothing is built parent-side."""
        if self.cache is None:
            return None, None, None
        return prepare_job(index, job, self.cache)

    def _execute(self, pool: WorkerPool, index: int, job: Dict[str, Any],
                 func: Any, started: float,
                 on_dispatch: Optional[Callable[[int, int], None]],
                 on_event: Optional[EventSink]) -> "Future[JobResult]":
        """Start the ladder for one job; its events carry the job's
        index and its row the wait from ``started`` to the first
        hand-off to a worker."""
        res = _result(job, status="failed", index=index)

        def sink(event: ProgressEvent) -> None:
            event.index = index
            emit_event(on_event, event)

        def start(attempt: int) -> None:
            if attempt == 1:
                res.queue_wait_s = time.monotonic() - started
            if on_dispatch is not None:
                on_dispatch(index, attempt)

        return run_ladder(
            pool, job, func=func, timeout=self.timeout,
            retries=self.retries, degrade=self.degrade,
            backoff_s=self.retry_backoff_s, rng=self._rng,
            on_dispatch=start, on_event=sink, res=res)

    def _settle(self, res: JobResult, key: Optional[str],
                on_event: Optional[EventSink]) -> JobResult:
        if key is not None and res.status == "ok" and not res.cache_hit:
            self.cache.put(key, res.result)
        emit_event(on_event, ProgressEvent(
            kind="result", job_id=res.job_id, index=res.index,
            status=res.status, beats=res.beats, detail=res.error))
        return res


def degraded_record(job: Dict[str, Any],
                    func=None) -> Dict[str, Any]:
    """The graceful-degradation result: the trivial Shannon/MUX mapping.

    A :class:`DecompositionEngine` with a zero time budget skips the
    DSD pre-pass and the bound-set search entirely and walks the output
    BDDs into MUX trees — bounded by BDD size, deterministic, and never
    subject to the hang the real run may have hit (test hooks only fire
    inside workers).
    """
    from repro.core.api import map_to_xc3000
    if func is None:
        func = jobspec.build_function(job["source"])
    config = job.get("config") or {}
    mapped = map_to_xc3000(func, use_dontcares=False, time_budget=0.0)
    record = mapped.to_record()
    record["degraded"] = True
    if job.get("flow") == "compare":
        record = {"mulopII": dict(record), "mulop_dc": dict(record),
                  "clbs_saved": 0, "degraded": True}
    elif config.get("verify", True):
        record["verified"] = jobspec._verify_record(func, mapped)
    return record
