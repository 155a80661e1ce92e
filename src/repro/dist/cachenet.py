"""The shared result store over the wire: any node's hit is every
node's hit.

:class:`CacheServer` fronts one :class:`~repro.runtime.cache
.ResultCache` (the coordinator's — usually the same directory a local
``repro batch --cache-dir`` run would use) with a tiny frame protocol::

    {"op": "get",  "key": <sha256>}            -> {"ok": true, "payload": ...}
    {"op": "put",  "key": <sha256>, "payload"} -> {"ok": true}
    {"op": "stats"}                            -> {"ok": true, "stats": ...}
    {"op": "ping"}                             -> {"ok": true}

Keys are exactly the local cache keys (:func:`repro.runtime.cache
.cache_key`), so a distributed run and a single-host run share entries
bidirectionally.  One lock serializes cache access — correctness over
concurrency; the store is an accelerator, not a hot path.

A ``get``/``put`` frame that carries an ``"ns"`` field (an older
client naming a cache namespace) is refused with ``bad namespace``;
there is one store.

:class:`RemoteCache` is the node-side client: a
:class:`~repro.runtime.cache.ResultCache` subclass whose lookup ladder
is *memory LRU -> remote get* (read-through) and whose
:meth:`~RemoteCache.put` enqueues to a background writer thread
(write-behind) — job latency never waits on the store.  Every network
failure is contained the way local cache failures are: a failed fetch
is a miss, a failed write-behind is a counted skipped write, and the
job proceeds either way.  Client get frames route through the
``cache.fetch`` fault site.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Any, Dict, Optional

from repro.dist.wire import WireError, connect, recv_frame, send_frame
from repro.faults import FaultInjected
from repro.runtime.cache import ResultCache

#: Default socket timeout for cache client I/O (seconds) — a stuck
#: store must read as a miss quickly, not stall the whole node.
CLIENT_TIMEOUT_S = 5.0


class CacheServer:
    """Serve a :class:`ResultCache` to remote nodes over TCP.

    ``start`` binds and spawns the accept loop; ``close`` stops it and
    joins the handler threads.  ``served`` counters (gets/puts/hits)
    feed the coordinator's dist stats.
    """

    def __init__(self, cache: ResultCache, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.cache = cache
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._threads: list = []
        self._conns: set = set()
        self._closing = False
        self.counters = {"gets": 0, "hits": 0, "puts": 0, "errors": 0}

    def start(self) -> "CacheServer":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(32)
        self.port = sock.getsockname()[1]
        self._sock = sock
        thread = threading.Thread(target=self._accept_loop,
                                  name="repro-cachenet-accept", daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.add(conn)
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      name="repro-cachenet-conn",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except WireError:
                    # A torn/corrupted request poisons only this
                    # connection; the client re-connects and retries.
                    with self._lock:
                        self.counters["errors"] += 1
                    return
                if request is None:
                    return
                send_frame(conn, self._reply(request))
        except OSError:
            pass  # client went away mid-reply; nothing to clean up
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def _reply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        with self._lock:
            if op in ("get", "put") and request.get("ns") is not None:
                self.counters["errors"] += 1
                return {"ok": False, "error": "bad namespace"}
            if op == "get":
                self.counters["gets"] += 1
                payload = self.cache.get(str(request.get("key")))
                if payload is not None:
                    self.counters["hits"] += 1
                return {"ok": True, "payload": payload}
            if op == "put":
                payload = request.get("payload")
                if isinstance(payload, dict):
                    self.counters["puts"] += 1
                    self.cache.put(str(request.get("key")), payload)
                    return {"ok": True}
                self.counters["errors"] += 1
                return {"ok": False, "error": "put without payload"}
            if op == "stats":
                return {"ok": True, "stats": self.cache.counter_stats(),
                        "served": dict(self.counters)}
            if op == "ping":
                return {"ok": True}
            self.counters["errors"] += 1
            return {"ok": False, "error": f"unknown op {op!r}"}

    def close(self) -> None:
        self._closing = True
        if self._sock is not None:
            # shutdown() first: close() alone does not wake a thread
            # blocked in accept() on the listener.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        # Unblock handler threads parked in recv_frame on live client
        # connections — otherwise each join below burns its timeout.
        with self._lock:
            live = list(self._conns)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)


class RemoteCache(ResultCache):
    """Read-through / write-behind client for a :class:`CacheServer`.

    The lookup ladder is memory LRU -> remote get; there is no local
    disk tier (the shared store *is* the disk).  ``get`` keeps the base
    class's hit/miss counters and latency windows — the hit percentiles
    of a node therefore measure what a *remote* hit costs, which is the
    number the remote-vs-local satellite exists to surface.  Writes are
    queued to a background thread and never block a job; ``flush``
    waits until every queued write has been answered by the server (the
    node calls it before reporting a result so a stolen duplicate on
    another node sees the entry).
    """

    def __init__(self, host: str, port: int,
                 memory_limit: int = 256,
                 timeout: float = CLIENT_TIMEOUT_S) -> None:
        # root points at a path never created: the disk-tier methods
        # (iter_files/disk_stats) see an empty store, and _lookup below
        # never touches it.
        super().__init__(root="/nonexistent/repro-remote-cache",
                         memory_limit=memory_limit)
        self.host = host
        self.port = port
        self.timeout = timeout
        self.remote_hits = 0
        self.remote_misses = 0
        #: Fetches that failed (socket error, injected fault, protocol
        #: violation) and were served as misses.
        self.fetch_errors = 0
        #: Node job threads share one RemoteCache; the base class's LRU
        #: is only safe single-threaded, so memory-tier ops lock here.
        self._mem_lock = threading.RLock()
        self._get_lock = threading.Lock()
        self._get_sock: Optional[socket.socket] = None
        self._queue: "deque" = deque()
        #: Writes popped off the queue and not yet answered by the
        #: server — an empty queue alone does not mean they landed.
        self._sending = 0
        self._wakeup = threading.Condition()
        self._closing = False
        self._writer = threading.Thread(target=self._write_behind,
                                        name="repro-cachenet-writer",
                                        daemon=True)
        self._writer.start()

    # -- read-through ---------------------------------------------------

    def _lookup(self, key: str) -> Optional[Dict[str, Any]]:
        with self._mem_lock:
            cached = self._lru.get(key)
            if cached is not None:
                self._lru.move_to_end(key)
                self.hits += 1
                return cached
        payload = self._fetch(key)
        if payload is None:
            self.misses += 1
            return None
        with self._mem_lock:
            self._remember(key, payload)
        self.hits += 1
        return payload

    def _fetch(self, key: str) -> Optional[Dict[str, Any]]:
        with self._get_lock:
            try:
                sock = self._connected_get_sock()
                send_frame(sock, {"op": "get", "key": key},
                           site="cache.fetch")
                reply = recv_frame(sock)
            except (OSError, WireError, FaultInjected, MemoryError):
                self._drop_get_sock()
                self.fetch_errors += 1
                return None
            if reply is None:
                self._drop_get_sock()
                self.fetch_errors += 1
                return None
        payload = reply.get("payload")
        if isinstance(payload, dict):
            self.remote_hits += 1
            return payload
        self.remote_misses += 1
        return None

    def _connected_get_sock(self) -> socket.socket:
        if self._get_sock is None:
            self._get_sock = connect(self.host, self.port,
                                     timeout=self.timeout)
        return self._get_sock

    def _drop_get_sock(self) -> None:
        if self._get_sock is not None:
            try:
                self._get_sock.close()
            except OSError:
                pass
            self._get_sock = None

    # -- write-behind ---------------------------------------------------

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Remember locally, enqueue the remote write; never blocks."""
        with self._mem_lock:
            self._remember(key, payload)
        with self._wakeup:
            self._queue.append((key, payload))
            self._wakeup.notify()

    def _write_behind(self) -> None:
        sock: Optional[socket.socket] = None
        while True:
            with self._wakeup:
                while not self._queue and not self._closing:
                    self._wakeup.wait()
                if self._closing and not self._queue:
                    break
                key, payload = self._queue.popleft()
                self._sending += 1
            try:
                if sock is None:
                    sock = connect(self.host, self.port,
                                   timeout=self.timeout)
                send_frame(sock, {"op": "put", "key": key,
                                  "payload": payload})
                if recv_frame(sock) is None:
                    raise WireError("cache server closed on put")
            except (OSError, WireError, MemoryError):
                # Skipped write, same contract as a local write error:
                # the result stays correct, the shared entry is absent.
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                    sock = None
                self.write_errors += 1
            with self._wakeup:
                self._sending -= 1
                self._wakeup.notify_all()  # flush() waiters re-check
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def flush(self, timeout: float = CLIENT_TIMEOUT_S) -> bool:
        """Wait until every queued write has been answered (or
        ``timeout``)."""
        deadline = time.monotonic() + timeout
        with self._wakeup:
            while self._queue or self._sending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wakeup.wait(remaining)
        return True

    def close(self) -> None:
        self.flush()
        with self._wakeup:
            self._closing = True
            self._wakeup.notify_all()
        self._writer.join(timeout=2.0)
        with self._get_lock:
            self._drop_get_sock()

    def counter_stats(self) -> Dict[str, Any]:
        data = super().counter_stats()
        data.update(remote_hits=self.remote_hits,
                    remote_misses=self.remote_misses,
                    fetch_errors=self.fetch_errors,
                    pending_writes=len(self._queue) + self._sending)
        return data


__all__ = ["CacheServer", "RemoteCache", "CLIENT_TIMEOUT_S"]
