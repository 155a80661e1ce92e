"""The decomposition service core: requests -> flights -> pool.

This module is the heart of ``repro serve``.  It owns a persistent
:class:`~repro.runtime.pool.WorkerPool` (warm BDD managers reused
across requests), a read-through :class:`~repro.runtime.cache
.ResultCache`, a weighted-fair :class:`~repro.serve.queueing.FairQueue`
and the single-flight table that collapses identical concurrent
requests onto one computation.

Request lifecycle (on the daemon's event loop unless noted)::

    handle(request, emit)
      └─ build function parent-side (executor, faults suppressed)
      └─ cache.get(key)        -> hit: reply, zero worker dispatches
      └─ single-flight lookup  -> join an identical in-flight request
      └─ admission control     -> queue full: shed to the verified
      │                           trivial mapping, or reject "overloaded"
      └─ FairQueue.push        -> _pump flies when a pool slot frees
            └─ _fly: await run_ladder (pool.submit, crash retries
               w/ seeded backoff, timeout/hang -> degrade),
               cache.put on ok, broadcast

The failure ladder is the batch tier's own
(:func:`repro.runtime.scheduler.run_ladder`) — crash retried then
degraded, timeout/hang/exception degraded without retry, the same
seeded jittered backoff and error texts — so a request served by the
daemon settles to the same status, error and record a batch row gets,
bit for bit (the unit of determinism is the job, not the process).  The
ladder never blocks, so the loop awaits its future directly.

The ``server.dispatch`` fault site fires as the pool hands each
attempt to a worker; an injected raise there is contained as if the
worker had crashed (retry, then degrade) — chaos at the dispatch
boundary must never take the daemon down.
"""

from __future__ import annotations

import asyncio
import functools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.runtime import jobspec
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.pool import ProgressEvent, WorkerPool
from repro.runtime.scheduler import fallback, run_ladder
from repro.serve.protocol import (
    MAX_RETRIES,
    Overloaded,
    ServeError,
    ServeRequest,
    ShuttingDown,
    strip_record,
)
from repro.serve.queueing import DEFAULT_DEPTH, FairQueue, QueueFull

#: A frame consumer: called on the event loop with JSON-able dicts.
EmitFn = Callable[[Dict[str, Any]], None]


@dataclass
class _Subscriber:
    request: ServeRequest
    emit: EmitFn
    started: float


@dataclass
class _Flight:
    """One unit of real work; N coalesced requests may ride it."""

    key: str
    job: Dict[str, Any]
    func: Any
    subscribers: List[_Subscriber] = field(default_factory=list)
    done: "asyncio.Future[Tuple[str, Optional[dict], Optional[str]]]" = None  # type: ignore[assignment]

    @property
    def tenant(self) -> str:
        return self.subscribers[0].request.tenant

    def broadcast(self, frame: Dict[str, Any]) -> None:
        """Progress frame to every *streaming* subscriber."""
        for sub in self.subscribers:
            if sub.request.stream:
                out = dict(frame)
                if sub.request.id is not None:
                    out["id"] = sub.request.id
                try:
                    sub.emit(out)
                except Exception:  # noqa: BLE001 — a dead client is not our problem
                    pass

    def on_pool_event(self, event: ProgressEvent) -> None:
        frame = event.as_dict()
        frame["job_id"] = self.job["job_id"]
        self.broadcast(frame)


class DecompositionService:
    """Multiplex decomposition requests onto a persistent worker pool."""

    def __init__(self, *, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 queue_depth: int = DEFAULT_DEPTH,
                 shed: str = "degrade",
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 retry_backoff_s: float = 0.25,
                 heartbeat_s: float = 1.0,
                 hang_grace_s: Optional[float] = None,
                 weights: Optional[Dict[str, float]] = None,
                 warm_limit: Optional[int] = None) -> None:
        if shed not in ("degrade", "reject"):
            raise ValueError("shed must be 'degrade' or 'reject'")
        self.pool = WorkerPool(workers, heartbeat_s=heartbeat_s,
                               hang_grace_s=hang_grace_s,
                               default_timeout=timeout,
                               warm_limit=warm_limit)
        self.cache = cache
        self.queue = FairQueue(depth=queue_depth)
        for tenant, weight in (weights or {}).items():
            self.queue.set_weight(tenant, weight)
        self.shed = shed
        self.timeout = timeout
        self.retries = max(0, min(retries, MAX_RETRIES))
        self.retry_backoff_s = retry_backoff_s
        #: Crash-retry jitter stream (seeded, as in the batch tier).
        self._rng = random.Random(0)
        self._inflight: Dict[str, _Flight] = {}
        self._busy = 0
        self._draining = False
        self._flight_tasks: "set[asyncio.Task]" = set()
        self.started_at = time.time()
        self.counters = {
            "requests": 0, "ok": 0, "degraded": 0, "failed": 0,
            "errors": 0, "cache_hits": 0, "coalesced": 0, "shed": 0,
            "rejected": 0, "retries": 0,
        }

    # -- public entry ---------------------------------------------------

    async def handle(self, request: ServeRequest,
                     emit: EmitFn) -> Dict[str, Any]:
        """Serve one validated request.

        ``emit`` receives progress frames when the request streams; the
        returned dict is the final ``result`` frame.  Typed
        :class:`ServeError` failures are raised for the daemon to shape
        into ``error`` frames; nothing else escapes.
        """
        self.counters["requests"] += 1
        if self._draining:
            raise ShuttingDown("daemon is draining; retry elsewhere")
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        job = jobspec.make_job(request.source, job_id=request.id or None,
                              flow=request.flow,
                              config=request.job_config(),
                              test_hook=request.test_hook)

        # Parent-side build: same suppressed-faults policy as the batch
        # scheduler's cache path; a bad source is the client's error.
        def build():
            with faults.suppressed():
                func = jobspec.build_function(job["source"])
                return func, func.canonical_key()
        try:
            func, func_key = await loop.run_in_executor(None, build)
        except Exception as exc:  # noqa: BLE001 — bad source: typed reply
            self.counters["errors"] += 1
            from repro.serve.protocol import BadSource
            raise BadSource(f"{type(exc).__name__}: {exc}") from exc
        key = cache_key(func_key, job["flow"], job["config"],
                        dsd=job.get("dsd", True))

        # Read-through cache: a repeat request never touches a worker.
        if self.cache is not None:
            record = self.cache.get(key)
            if record is not None:
                self.counters["cache_hits"] += 1
                self.counters["ok"] += 1
                if request.stream:
                    self._emit_to(request, emit, {"event": "cache",
                                                  "key": key[:16]})
                return self._final(request, "ok", record, None,
                                   cache_hit=True, started=started)

        subscriber = _Subscriber(request, emit, started)

        # Single-flight: identical concurrent work runs once.  Chaos
        # requests (test_hook set) always fly alone so an injected
        # crash cannot leak into an innocent rider's reply.
        flight = self._inflight.get(key) if request.test_hook is None \
            else None
        if flight is not None:
            self.counters["coalesced"] += 1
            flight.subscribers.append(subscriber)
            if request.stream:
                self._emit_to(request, emit,
                              {"event": "coalesced",
                               "riders": len(flight.subscribers)})
            status, record, error = await asyncio.shield(flight.done)
            self._count_status(status)
            return self._final(request, status, record, error,
                               started=started)

        flight = _Flight(key=key, job=job, func=func,
                         subscribers=[subscriber],
                         done=loop.create_future())
        if request.test_hook is None:
            self._inflight[key] = flight

        # Admission control: bounded queues, explicit outcomes.
        try:
            self.queue.push(request.tenant, flight)
        except QueueFull:
            self._inflight.pop(key, None)
            if self.shed == "reject":
                self.counters["rejected"] += 1
                raise Overloaded(
                    f"tenant {request.tenant!r} queue is full") from None
            # Load-shed: serve the verified trivial mapping instead of
            # queueing unboundedly — degraded beats stalled.
            self.counters["shed"] += 1
            if request.stream:
                self._emit_to(request, emit,
                              {"event": "shed", "reason": "queue full"})
            shed = await loop.run_in_executor(None, functools.partial(
                fallback, job, "load shed: queue full", func))
            self._count_status(shed.status)
            return self._final(request, shed.status, shed.result,
                               shed.error, started=started)

        if request.stream:
            self._emit_to(request, emit,
                          {"event": "queued",
                           "depth": self.queue.depth_of(request.tenant)})
        self._pump(loop)
        status, record, error = await asyncio.shield(flight.done)
        self._count_status(status)
        return self._final(request, status, record, error,
                           started=started)

    # -- dispatch pump --------------------------------------------------

    def _pump(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start flights while pool slots are free, in WFQ order."""
        while self._busy < self.pool.workers:
            flight = self.queue.pop()
            if flight is None:
                return
            self._busy += 1
            task = loop.create_task(self._fly(loop, flight))
            self._flight_tasks.add(task)
            task.add_done_callback(self._flight_tasks.discard)

    async def _fly(self, loop: asyncio.AbstractEventLoop,
                   flight: _Flight) -> None:
        job = flight.job
        request = flight.subscribers[0].request

        def sink(event: ProgressEvent) -> None:
            # Pool dispatcher thread -> event loop marshalling.
            loop.call_soon_threadsafe(flight.on_pool_event, event)

        def dispatch_site(attempt: int) -> None:
            # Chaos boundary: an injected raise here is contained
            # exactly like a worker crash (retry, then degrade).
            faults.fault_point("server.dispatch",
                               job["job_id"].encode("utf-8"))

        try:
            # Warm-memo key: ship the wire dump so repeat sources reuse
            # an already-built function (and its hot BDD manager).
            job.setdefault("wire", flight.func.to_wire())
            res = await asyncio.wrap_future(run_ladder(
                self.pool, job, func=flight.func,
                timeout=(self.timeout if request.timeout is None
                         else request.timeout),
                retries=(self.retries if request.retries is None
                         else request.retries),
                backoff_s=self.retry_backoff_s, rng=self._rng,
                on_dispatch=dispatch_site, on_event=sink))
            self.counters["retries"] += res.retries
            if res.status == "ok" and self.cache is not None:
                self.cache.put(flight.key, res.result)
            outcome = (res.status, res.result, res.error)
        except Exception as exc:  # noqa: BLE001 — never lose a waiter
            outcome = ("failed", None,
                       f"internal: {type(exc).__name__}: {exc}")
        finally:
            self._busy -= 1
            self._inflight.pop(flight.key, None)
        if not flight.done.done():
            flight.done.set_result(outcome)
        self._pump(loop)

    # -- shaping/accounting ---------------------------------------------

    @staticmethod
    def _emit_to(request: ServeRequest, emit: EmitFn,
                 frame: Dict[str, Any]) -> None:
        if request.id is not None:
            frame = {**frame, "id": request.id}
        try:
            emit(frame)
        except Exception:  # noqa: BLE001
            pass

    def _count_status(self, status: str) -> None:
        self.counters[status if status in ("ok", "degraded", "failed")
                      else "failed"] += 1

    @staticmethod
    def _final(request: ServeRequest, status: str,
               record: Optional[dict], error: Optional[str], *,
               cache_hit: bool = False,
               started: float = 0.0) -> Dict[str, Any]:
        frame: Dict[str, Any] = {
            "event": "result",
            "status": status,
            "flow": request.flow,
            "cache_hit": cache_hit,
            "elapsed_s": round(time.monotonic() - started, 6),
            "result": strip_record(record, request.include_blif),
        }
        if error is not None:
            frame["error"] = error
        if request.id is not None:
            frame["id"] = request.id
        return frame

    # -- lifecycle/observability ----------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout: float = 30.0) -> None:
        """Stop admitting, let in-flight work settle, stop the pool."""
        self._draining = True
        deadline = time.monotonic() + timeout
        while (self._flight_tasks or len(self.queue)) \
                and time.monotonic() < deadline:
            self._pump(asyncio.get_running_loop())
            await asyncio.sleep(0.02)
        for task in list(self._flight_tasks):
            task.cancel()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.pool.shutdown(drain=False, timeout=5.0))
        # Wake any stranded waiters (queued flights never dispatched).
        while True:
            flight = self.queue.pop()
            if flight is None:
                break
            if not flight.done.done():
                flight.done.set_result(
                    ("failed", None, "daemon shut down before dispatch"))

    def stats(self) -> Dict[str, Any]:
        """One JSON-able document for ``/metrics``."""
        data: Dict[str, Any] = {
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "inflight": len(self._flight_tasks),
            "counters": dict(self.counters),
            "queue": self.queue.stats(),
            "pool": self.pool.stats(),
        }
        if self.cache is not None:
            # counter_stats (not stats): /metrics is polled, so no disk
            # walk; includes hit/miss latency percentiles and warm_hits
            # already rides in pool.stats() above.
            data["cache"] = self.cache.counter_stats()
        return data
