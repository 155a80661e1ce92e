"""``repro dist serve-node``: one worker node of a distributed batch.

A node is deliberately thin: it accepts a coordinator session, opens
**one** :class:`~repro.runtime.pool.WorkerPool` for it (``workers``
processes, forked on the session's first job and reused for every job
after), receives jobs one frame at a time and runs each through the
batch per-job path, :meth:`~repro.runtime.scheduler.BatchScheduler
.run_job`, up to ``workers`` at once.  That reuse is the whole point —
the node runs the exact timeout/hang/crash/degrade failure ladder and
produces the exact :meth:`~repro.runtime.scheduler.JobResult.as_dict`
row shape of a single-host run, so the coordinator's merged output is
byte-identical by construction, not by reimplementation.

Session protocol (all frames :mod:`repro.dist.wire`)::

    coordinator -> node   {"op": "hello", "scheduler": {...},
                           "cache": {"host", "port"} | null}
    node -> coordinator   {"op": "hello", "ok": true, "workers": W}
    coordinator -> node   {"op": "job", "index": i, "job": {...}}   (many)
    node -> coordinator   {"op": "event", "index": i, "event": {...}}
    node -> coordinator   {"op": "result", "index": i, "row": {...}}
    coordinator -> node   {"op": "bye"}  (or just EOF)

A node can also dial *out*: ``serve-node --join host:port`` registers
with a running coordinator's membership listener instead of waiting to
be dialed — that is how a late node joins a batch already in flight::

    node -> coordinator   {"op": "join", "workers": W,
                           "node_id": "..."}
    coordinator -> node   {"op": "hello", "ok": true, "cache": ...,
                           "scheduler": ...}    (then the same session)

``node_id`` is stable across reconnects (default ``hostname-pid``): a
node whose link dropped mid-batch rejoins under bounded seeded-jitter
backoff and re-registers *in place* — its stale claims were already
reassigned at loss time, and any row that raced through anyway is
deduped by the coordinator's first-claim-wins index map.  An explicit
``bye`` ends the join loop (the batch drained); a torn link re-enters
it.

With a ``cache`` advertised, the node attaches a
:class:`~repro.dist.cachenet.RemoteCache` to the session's scheduler:
hits skip execution exactly as locally, and results write behind to the
shared store (flushed before the result frame ships, so a stolen
duplicate landing on another node dedupes on its cache key).

Chaos sites: ``node.loss`` fires on every job receipt — its ``crash``
kind is ``os._exit``, a *real* node death the coordinator must survive;
``shard.rpc`` wraps every frame the node sends, so injected corruption
surfaces coordinator-side as a wire error (= lost node, jobs
reassigned).  ``node.join`` wraps the first registration frame and
``node.reconnect`` every re-registration, so chaos on the membership
path is contained by the same bounded-retry loop that absorbs a slow
coordinator.  Either way the distributed run completes.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro import faults
from repro.dist.cachenet import RemoteCache
from repro.dist.wire import (
    WireError,
    backoff_rng,
    connect,
    recv_frame,
    retry_backoff,
    send_frame,
)
from repro.runtime.pool import ProgressEvent, resolve_workers
from repro.runtime.scheduler import BatchScheduler

#: Handshake budget when dialing a coordinator to join.
JOIN_HANDSHAKE_TIMEOUT_S = 10.0


def wire_source(job: Dict[str, Any]) -> Dict[str, Any]:
    """Rewrite a job's source to its shipped ``wire`` payload.

    Nodes must not need the coordinator's filesystem (a ``pla:`` path
    manifest entry names a file only the coordinator has), so when the
    coordinator attached a wire dump the node builds from *that*.  The
    original label is kept so result rows stay byte-identical to a
    single-host run.
    """
    if not job.get("wire"):
        return job
    from repro.runtime.jobspec import source_label
    rewritten = dict(job)
    rewritten["source"] = {"kind": "wire", "data": job["wire"],
                           "label": source_label(job["source"])}
    return rewritten


class NodeServer:
    """Accept coordinator sessions and execute shipped jobs locally."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 heartbeat_s: Optional[float] = 1.0,
                 hang_grace_s: Optional[float] = None,
                 node_id: Optional[str] = None,
                 join_tries: int = 5, join_backoff_s: float = 0.5,
                 backoff_seed: int = 0) -> None:
        self.host = host
        self.port = port
        self.workers, _ = resolve_workers(workers)
        self.timeout = timeout
        self.retries = retries
        self.heartbeat_s = heartbeat_s
        self.hang_grace_s = hang_grace_s
        #: Stable identity across reconnects — the coordinator keys its
        #: membership map on this, so a rejoin lands on the same link.
        self.node_id = node_id or f"{socket.gethostname()}-{os.getpid()}"
        self.join_tries = max(1, join_tries)
        self.join_backoff_s = join_backoff_s
        self.backoff_seed = backoff_seed
        self._sock: Optional[socket.socket] = None
        self._closing = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "NodeServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(4)
        self.port = sock.getsockname()[1]
        self._sock = sock
        return self

    def serve_forever(self) -> None:
        """Sessions run one at a time; a node serves one coordinator."""
        if self._sock is None:
            self.start()
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                self._session(conn)
            except Exception:  # noqa: BLE001 — a poisoned session (e.g.
                pass  # an injected node.loss raise) must not kill the
                # node: the dropped connection is the whole signal the
                # coordinator needs, and the node can serve again.
            finally:
                conn.close()

    def close(self) -> None:
        self._closing = True
        if self._sock is not None:
            # shutdown() first so a serve_forever() thread parked in
            # accept() wakes up instead of blocking past close().
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    # -- join mode ------------------------------------------------------

    def serve_join(self, coord_host: str, coord_port: int) -> bool:
        """Dial a coordinator's membership listener and serve it.

        Registers (``node.join`` site), runs the ordinary session, and
        on a torn link re-registers (``node.reconnect`` site) under
        bounded seeded-jitter backoff — ``join_tries`` consecutive
        failures end the loop.  Returns ``True`` when the session ended
        with an explicit ``bye`` (batch drained), ``False`` when the
        retry budget ran out without one.
        """
        rng = backoff_rng(self.backoff_seed, f"join:{self.node_id}")
        registrations = 0
        failures = 0
        while not self._closing:
            site = "node.join" if registrations == 0 else "node.reconnect"
            conn = None
            try:
                conn = connect(coord_host, coord_port,
                               timeout=JOIN_HANDSHAKE_TIMEOUT_S)
                conn.settimeout(JOIN_HANDSHAKE_TIMEOUT_S)
                # The membership fault site: a crash kind here is a
                # node dying mid-registration, a raise/corrupt kind a
                # poisoned join frame — all absorbed by this loop.
                send_frame(conn, {"op": "join", "workers": self.workers,
                                  "node_id": self.node_id}, site=site)
                hello = recv_frame(conn)
                if (not isinstance(hello, dict)
                        or hello.get("op") != "hello"
                        or not hello.get("ok")):
                    detail = (hello or {}).get("error", "bad hello") \
                        if isinstance(hello, dict) else "connection closed"
                    raise WireError(f"join refused: {detail}")
                conn.settimeout(None)
            except (OSError, WireError, faults.FaultInjected,
                    MemoryError):
                # MemoryError included: an oom-poisoned registration
                # must cost a retry, not the whole join loop.
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                failures += 1
                if failures >= self.join_tries:
                    return False
                time.sleep(retry_backoff(failures, self.join_backoff_s,
                                         rng))
                continue
            registrations += 1
            failures = 0  # a successful registration resets the budget
            saw_bye = False
            try:
                saw_bye = self._serve(conn, hello, greet=False)
            except Exception:  # noqa: BLE001 — same containment as
                pass  # accept mode: a poisoned session must not kill
                # the node; the dropped link is the whole signal.
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if saw_bye:
                return True
            # Torn link mid-batch: our claims are being reassigned
            # coordinator-side; rejoin and keep serving.
            failures += 1
            if failures >= self.join_tries:
                return False
            time.sleep(retry_backoff(failures, self.join_backoff_s, rng))
        return False

    # -- one coordinator session ---------------------------------------

    def _session(self, conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn)
        except (WireError, OSError):
            return
        if not isinstance(hello, dict) or hello.get("op") != "hello":
            return
        self._serve(conn, hello, greet=True)

    def _serve(self, conn: socket.socket, hello: Dict[str, Any],
               greet: bool) -> bool:
        """The job loop shared by accept mode and join mode.

        ``greet`` sends the accept-mode hello reply (join mode already
        advertised its workers in the join frame).  Returns ``True``
        when the coordinator said an explicit ``bye`` — join mode uses
        that to tell a drained batch from a torn link.
        """
        send_lock = threading.Lock()
        alive = threading.Event()
        alive.set()

        def hang_up() -> None:
            # Close the link so the coordinator's reader sees EOF and
            # reassigns (a mute node with an open connection would
            # stall the batch forever).
            alive.clear()
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

        def send(message: Dict[str, Any]) -> None:
            # shard.rpc wraps every node->coordinator frame; any
            # injected or real failure here means the coordinator can
            # no longer hear us, which *is* node loss from its side.
            if not alive.is_set():
                return
            try:
                with send_lock:
                    send_frame(conn, message, site="shard.rpc")
            except (OSError, WireError, faults.FaultInjected):
                hang_up()

        spec = hello.get("cache")
        cache = (RemoteCache(str(spec["host"]), int(spec["port"]))
                 if spec else None)
        cfg = hello.get("scheduler") or {}
        scheduler = BatchScheduler(
            workers=self.workers,
            timeout=cfg.get("timeout", self.timeout),
            retries=int(cfg.get("retries", self.retries)),
            cache=cache, degrade=bool(cfg.get("degrade", True)),
            heartbeat_s=cfg.get("heartbeat_s", self.heartbeat_s),
            hang_grace_s=cfg.get("hang_grace_s", self.hang_grace_s))
        if greet:
            send({"op": "hello", "ok": True, "workers": self.workers})
        saw_bye = False
        pool = scheduler.open_pool()
        jobs = ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-dist-job")
        try:
            while alive.is_set():
                try:
                    frame = recv_frame(conn)
                except (WireError, OSError):
                    break
                if frame is None:
                    break
                if frame.get("op") == "bye":
                    saw_bye = True
                    break
                if frame.get("op") != "job":
                    continue
                # The whole-node death site: a crash kind here is
                # os._exit — the process vanishes mid-shard, which
                # is exactly the loss the coordinator must tolerate.
                faults.fault_point("node.loss")
                jobs.submit(self._run_job, scheduler, pool,
                            int(frame["index"]), dict(frame["job"]),
                            send, hang_up)
        finally:
            # Jobs in flight finish (their results still reach the
            # shared cache) before the pool stops.
            jobs.shutdown(wait=True)
            pool.shutdown()
            if cache is not None:
                cache.close()
        return saw_bye

    @staticmethod
    def _run_job(scheduler: BatchScheduler, pool, index: int,
                 job: Dict[str, Any], send, hang_up) -> None:
        """One job frame through the batch per-job path."""
        def relay(event: ProgressEvent) -> None:
            send({"op": "event", "index": index,
                  "event": event.as_dict()})

        try:
            row = scheduler.run_job(pool, wire_source(job), index,
                                    on_event=relay).as_dict()
        except Exception:  # noqa: BLE001 — never leave a claim hanging
            # The ladder settles every job; an error escaping it is a
            # broken node, and dropping the link gets the claim
            # reassigned instead of waited on forever.
            hang_up()
            return
        if scheduler.cache is not None:
            # The write-behind entry must be visible before the claim
            # settles, so a stolen duplicate dedupes on its cache key.
            scheduler.cache.flush()
        send({"op": "result", "index": index, "row": row})


__all__ = ["NodeServer", "wire_source", "JOIN_HANDSHAKE_TIMEOUT_S"]
