"""Shard a batch across worker nodes, steal from stragglers, survive
node loss *and coordinator loss*, merge byte-identically.

The coordinator owns everything a single-host ``repro batch`` parent
owns — the manifest, the cache, the journal — and delegates only
*execution*:

1. **Prepare** — every job's function is built parent-side (under
   :func:`repro.faults.suppressed`, like the scheduler's cache path);
   its :func:`~repro.runtime.cache.cache_key` both addresses the shared
   store and, hashed, picks the job's home shard, so shard placement is
   content-stable across runs.  Cache hits settle here and never ship.
2. **Shard + window** — remaining jobs split into per-node deques by
   key hash.  Each node holds a small in-flight *window* (twice its
   worker count), refilled one job per result — pull-based flow
   control, so a slow node never queues work a fast node could take.
3. **Steal** — a node whose own shard ran dry refills from the *tail*
   of the longest remaining shard.  The claim record is the
   coordinator's ``in_flight`` index->node map; the first result row
   for an index wins, a duplicate (stolen *and* finished by its owner)
   is dropped and counted, and the shared cache dedupes the work itself
   by key.
4. **Retry before loss** — a broken link to a *dialed* node is first
   treated as a transient blip: the unacknowledged in-flight jobs go
   back to the head of the node's own shard and a bounded seeded-jitter
   redial (``rpc_tries`` × ``rpc_backoff_s``) tries to re-establish the
   session.  Only when the budget is exhausted does the loss ladder
   run.
5. **Node loss** — a dead connection past its redial budget moves the
   node's unfinished window and remaining shard to the surviving nodes;
   with no survivors the coordinator runs the remainder through a local
   :class:`~repro.runtime.scheduler.BatchScheduler` — the same ladder
   on a local pool.  The batch always completes.
6. **Dynamic membership** — a registration listener accepts late
   joiners mid-batch (``repro dist serve-node --join host:port``): a
   fresh ``node_id`` becomes a new link and an immediate steal target,
   a known ``node_id`` whose link already dropped re-registers in place
   (its stale claims were requeued/reassigned at loss time; a row that
   somehow raced through anyway is deduped by the first-claim-wins
   index map).
7. **Journal** — given a :class:`~repro.runtime.journal.BatchJournal`,
   the coordinator writes the single-host ``start``/``done`` records
   plus ``claim``/``reassign`` records binding each in-flight index to
   its node, every append fsync'd through the ``coord.journal`` fault
   site.  A SIGKILL'd coordinator resumes with ``--resume``: journaled
   ``done`` rows are spliced verbatim (``presettled``), only incomplete
   jobs are re-prepared and re-sharded — by the same content-stable key
   hash, so the merged output is byte-identical (under
   ``--stable-rows``) to an uninterrupted run.  Journal I/O failure
   degrades to journal-less, exactly like the single-host tier.

Rows are exactly :meth:`~repro.runtime.scheduler.JobResult.as_dict`
(every node runs each job through the batch per-job path,
:meth:`~repro.runtime.scheduler.BatchScheduler.run_job`, on one worker
pool per session), merged in submission order —
byte-identical to a single-host run up to the volatile timing fields
(``repro batch --stable-rows`` zeroes those for comparison).  One
caveat: if a node dies *after* finishing a job but before its row
lands, the reassigned run settles from the shared cache and the row
says ``cache_hit: true`` where a single-host run would have executed —
receipt-time loss (the ``node.loss`` site) cannot hit this window.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.dist.cachenet import CacheServer
from repro.dist.wire import (
    WireError,
    backoff_rng,
    connect,
    recv_frame,
    retry_backoff,
    send_frame,
)
from repro.runtime import jobspec
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.journal import BatchJournal
from repro.runtime.pool import EventSink, ProgressEvent, emit_event
from repro.runtime.scheduler import BatchScheduler, JobResult

#: In-flight window per node, as a multiple of its worker count.
WINDOW_FACTOR = 2

#: Handshake budget for a registering joiner — a hung joiner must not
#: wedge a listener thread.
JOIN_HANDSHAKE_TIMEOUT_S = 10.0


def parse_nodes(spec: str) -> List[Tuple[str, int]]:
    """``host:port,host:port`` -> ``[(host, port), ...]``."""
    nodes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"malformed node address {part!r} "
                             f"(use host:port)")
        nodes.append((host or "127.0.0.1", int(port)))
    if not nodes:
        raise ValueError("empty node list")
    return nodes


class _Link:
    """Coordinator-side state for one node connection.

    Dialed nodes carry ``host``/``port`` (the coordinator can redial
    them); joined nodes carry ``node_id`` (they redial *us*).
    """

    def __init__(self, label: str, host: Optional[str] = None,
                 port: Optional[int] = None,
                 node_id: Optional[str] = None) -> None:
        self.label = label
        self.host = host
        self.port = port
        self.node_id = node_id
        self.sock = None
        self.workers = 1
        self.window = WINDOW_FACTOR
        self.alive = False
        #: A redial thread currently owns this link (dialed nodes only).
        self.redialing = False
        #: Remaining mid-run redial attempts before the loss ladder.
        self.redial_budget = 0
        #: Home shard: manifest indices not yet sent anywhere.
        self.shard: "deque[int]" = deque()
        self.shard_size = 0
        #: Claim records: indices sent to this node, no row yet.
        self.in_flight: set = set()
        self.executed = 0
        self.sessions = 0
        self.reader: Optional[threading.Thread] = None


class DistCoordinator:
    """Run a job list across remote nodes; same contract as
    :meth:`BatchScheduler.run` but returning JSONL-shaped rows."""

    def __init__(self, nodes: List[Tuple[str, int]],
                 cache: Optional[ResultCache] = None,
                 cache_host: str = "127.0.0.1",
                 timeout: Optional[float] = None, retries: int = 1,
                 degrade: bool = True,
                 heartbeat_s: Optional[float] = 1.0,
                 hang_grace_s: Optional[float] = None,
                 connect_timeout_s: float = 10.0,
                 journal: Optional[BatchJournal] = None,
                 join_host: str = "127.0.0.1",
                 join_port: Optional[int] = 0,
                 rpc_tries: int = 3,
                 rpc_backoff_s: float = 0.2,
                 backoff_seed: int = 0,
                 on_listen: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        self.cache = cache
        self.cache_host = cache_host
        self.timeout = timeout
        self.retries = retries
        self.degrade = degrade
        self.heartbeat_s = heartbeat_s
        self.hang_grace_s = hang_grace_s
        self.connect_timeout_s = connect_timeout_s
        self.journal = journal
        self.join_host = join_host
        self.join_port = join_port
        self.rpc_tries = max(1, rpc_tries)
        self.rpc_backoff_s = rpc_backoff_s
        self.backoff_seed = backoff_seed
        self.on_listen = on_listen
        self._links = [_Link(f"{host}:{port}", host=host, port=port)
                       for host, port in nodes]
        self._by_node_id: Dict[str, _Link] = {}
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._rows: Dict[int, Dict[str, Any]] = {}
        self._spliced: set = set()
        self._jobs: List[Dict[str, Any]] = []
        self._overflow: "deque[int]" = deque()
        self._draining = False
        self._on_event: Optional[EventSink] = None
        self._on_row: Optional[Callable[[Dict[str, Any]], None]] = None
        self.steals = 0
        self.reassigned = 0
        self.node_losses = 0
        self.dup_results = 0
        self.local_fallback_jobs = 0
        self.joins = 0
        self.reconnects = 0
        self.rpc_retries = 0
        self._cache_server: Optional[CacheServer] = None
        self._join_sock: Optional[socket.socket] = None
        self._join_thread: Optional[threading.Thread] = None

    # -- public entry ---------------------------------------------------

    def run(self, jobs: List[Dict[str, Any]],
            on_row: Optional[Callable[[Dict[str, Any]], None]] = None,
            on_event: Optional[EventSink] = None,
            presettled: Optional[Dict[int, Dict[str, Any]]] = None
            ) -> List[Dict[str, Any]]:
        """Execute ``jobs`` across the nodes; rows in submission order.

        ``on_row`` fires as each row settles (out of order); ``on_event``
        receives the relayed :class:`ProgressEvent` stream from every
        node — the same callback API as the local scheduler.
        ``presettled`` maps job indices to journal-replayed ``done``
        rows: they are spliced into the output verbatim (no re-probe,
        no re-execution, no ``on_row``), which is the ``--resume``
        contract.
        """
        self._jobs = jobs
        self._on_event = on_event
        self._on_row = on_row
        for index, row in (presettled or {}).items():
            self._rows[int(index)] = row
            self._spliced.add(int(index))
        to_run = self._prepare(jobs)
        if to_run and self._links:
            self._shard(to_run)
            try:
                self._start_cache_server()
                self._start_join_listener()
                self._connect_all()
                self._pump()
            finally:
                self._teardown()
        missing = [i for i in to_run if i not in self._rows]
        if missing:
            self._run_locally(missing)
        return [self._rows[i] for i in sorted(self._rows)]

    # -- phase 1: prepare (build, probe, key) ---------------------------

    def _prepare(self, jobs: List[Dict[str, Any]]) -> List[int]:
        """Settle build failures and cache hits coordinator-side;
        attach wire payloads and shard keys to the rest.  Indices with
        a spliced (journal-replayed) row are skipped entirely."""
        to_run = []
        for index, job in enumerate(jobs):
            if index in self._rows:
                continue
            try:
                with faults.suppressed():
                    func = jobspec.build_function(job["source"])
            except Exception as exc:  # noqa: BLE001 — bad source
                self._settle_local(index, JobResult(
                    job_id=job["job_id"],
                    source=jobspec.source_label(job["source"]),
                    flow=job["flow"], status="failed",
                    error=f"{type(exc).__name__}: {exc}"))
                continue
            key = cache_key(func.canonical_key(), job["flow"],
                            job["config"])
            job["_dist_key"] = key
            record = self.cache.get(key) if self.cache is not None \
                else None
            if record is not None:
                self._settle_local(index, JobResult(
                    job_id=job["job_id"],
                    source=jobspec.source_label(job["source"]),
                    flow=job["flow"], status="ok", result=record,
                    cache_hit=True))
                continue
            job["wire"] = func.to_wire()
            to_run.append(index)
        return to_run

    def _settle_local(self, index: int, result: JobResult) -> None:
        result.index = index
        emit_event(self._on_event, ProgressEvent(
            kind="result", job_id=result.job_id, index=index,
            status=result.status, detail=result.error))
        self._record_row(index, result.as_dict())

    def _record_row(self, index: int, row: Dict[str, Any]) -> None:
        self._rows[index] = row
        if self.journal is not None:
            self.journal.record_done(index, row)
        if self._on_row is not None:
            self._on_row(row)

    # -- phase 2: shard -------------------------------------------------

    def _shard(self, to_run: List[int]) -> None:
        n = len(self._links)
        for index in to_run:
            key = self._jobs[index]["_dist_key"]
            link = self._links[int(key[:8], 16) % n]
            link.shard.append(index)
        for link in self._links:
            link.shard_size = len(link.shard)

    # -- connections ----------------------------------------------------

    def _start_cache_server(self) -> None:
        if self.cache is not None:
            self._cache_server = CacheServer(
                self.cache, host=self.cache_host).start()

    def _cache_spec(self) -> Optional[Dict[str, Any]]:
        if self._cache_server is None:
            return None
        return {"host": self.cache_host,
                "port": self._cache_server.port}

    def _scheduler_cfg(self) -> Dict[str, Any]:
        return {
            "timeout": self.timeout, "retries": self.retries,
            "degrade": self.degrade, "heartbeat_s": self.heartbeat_s,
            "hang_grace_s": self.hang_grace_s,
        }

    def _open_session(self, link: _Link) -> None:
        """Dial ``link`` and run the hello handshake (raises
        ``OSError``/:class:`WireError` on any failure)."""
        sock = connect(link.host, link.port,
                       timeout=self.connect_timeout_s)
        try:
            send_frame(sock, {"op": "hello", "cache": self._cache_spec(),
                              "scheduler": self._scheduler_cfg()})
            hello = recv_frame(sock)
            if not hello or not hello.get("ok"):
                raise WireError(f"bad hello from {link.label}")
        except (OSError, WireError):
            try:
                sock.close()
            except OSError:
                pass
            raise
        sock.settimeout(None)
        link.sock = sock
        link.workers = max(1, int(hello.get("workers", 1)))
        link.window = max(1, WINDOW_FACTOR * link.workers)
        link.sessions += 1

    def _establish(self, link: _Link) -> None:
        """Initial dial with bounded seeded-jitter retry — a node
        still booting (or mid-blip) costs a short sleep, not its whole
        shard."""
        rng = backoff_rng(self.backoff_seed, link.label)
        for attempt in range(1, self.rpc_tries + 1):
            try:
                self._open_session(link)
                return
            except (OSError, WireError):
                if attempt >= self.rpc_tries:
                    raise
                with self._lock:
                    self.rpc_retries += 1
                time.sleep(retry_backoff(attempt, self.rpc_backoff_s,
                                         rng))

    def _connect_all(self) -> None:
        # Snapshot the *dialed* links only: a joiner registering while
        # we are still dialing has already appended its (host=None,
        # reader-running) link to ``_links``, and it must not be
        # re-dialed, marked dead, or given a second reader here.
        with self._lock:
            dialed = [link for link in self._links
                      if link.host is not None]
        for link in dialed:
            try:
                self._establish(link)
                link.alive = True
                # ``rpc_tries`` counts total attempts: 1 means "no
                # mid-run redial, declare loss on first break".
                link.redial_budget = self.rpc_tries - 1
            except (OSError, WireError):
                # A node that never answers is a node lost before its
                # first job: its whole shard redistributes.
                link.alive = False
        with self._lock:
            for link in dialed:
                if not link.alive and link.shard:
                    self._reassign(link)
        for link in dialed:
            if link.alive:
                self._start_reader(link)

    def _start_reader(self, link: _Link) -> None:
        link.reader = threading.Thread(
            target=self._read_loop, args=(link, link.sock),
            name=f"repro-dist-read-{link.label}", daemon=True)
        link.reader.start()

    # -- dynamic membership ---------------------------------------------

    def _start_join_listener(self) -> None:
        """Bind the registration listener late nodes dial into."""
        if self.join_port is None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.join_host, self.join_port))
        sock.listen(8)
        self.join_port = sock.getsockname()[1]
        self._join_sock = sock
        self._join_thread = threading.Thread(
            target=self._join_accept_loop,
            name="repro-dist-join-accept", daemon=True)
        self._join_thread.start()
        if self.on_listen is not None:
            self.on_listen(self.join_host, self.join_port)

    def _join_accept_loop(self) -> None:
        while not self._draining:
            try:
                conn, addr = self._join_sock.accept()
            except OSError:
                return  # closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._register, args=(conn, addr),
                name="repro-dist-register", daemon=True).start()

    def _register(self, conn: socket.socket, addr: Tuple[str, int]
                  ) -> None:
        """One joiner's registration handshake::

            node -> coordinator  {"op": "join", "workers": W,
                                  "node_id": "..."}
            coordinator -> node  {"op": "hello", "ok": true,
                                  "cache": ..., "scheduler": ...}

        then the connection is an ordinary link.  A known ``node_id``
        whose link already dropped re-registers in place (reconnect); a
        live duplicate is refused with ``ok: false`` — the standing
        link keeps its claims, and the joiner's bounded backoff covers
        the gap until the coordinator observes the loss.
        """
        try:
            conn.settimeout(JOIN_HANDSHAKE_TIMEOUT_S)
            join = recv_frame(conn)
            if (not isinstance(join, dict)
                    or join.get("op") != "join"):
                raise WireError("not a join frame")
        except (OSError, WireError):
            try:
                conn.close()
            except OSError:
                pass
            return
        node_id = str(join.get("node_id") or "")
        with self._lock:
            link = self._by_node_id.get(node_id) if node_id else None
            refusal = None
            if self._draining:
                refusal = "batch is draining"
            elif link is not None and (link.alive or link.redialing):
                refusal = f"node_id {node_id!r} already registered"
        if refusal is not None:
            try:
                send_frame(conn, {"op": "hello", "ok": False,
                                  "error": refusal})
            except (OSError, WireError):
                pass
            try:
                conn.close()
            except OSError:
                pass
            return
        try:
            send_frame(conn, {"op": "hello", "ok": True,
                              "cache": self._cache_spec(),
                              "scheduler": self._scheduler_cfg()})
            conn.settimeout(None)
        except (OSError, WireError):
            try:
                conn.close()
            except OSError:
                pass
            return
        with self._lock:
            # Re-check under the lock: a racing duplicate (or a drain
            # that started during the reply) loses cleanly.
            link = self._by_node_id.get(node_id) if node_id else None
            if self._draining or (link is not None
                                  and (link.alive or link.redialing)):
                try:
                    conn.close()
                except OSError:
                    pass
                return
            if link is not None:
                self.reconnects += 1
            else:
                label = node_id or f"{addr[0]}:{addr[1]}"
                link = _Link(label, node_id=node_id or None)
                self._links.append(link)
                if node_id:
                    self._by_node_id[node_id] = link
                self.joins += 1
            link.sock = conn
            link.workers = max(1, int(join.get("workers", 1)))
            link.window = max(1, WINDOW_FACTOR * link.workers)
            link.alive = True
            link.sessions += 1
            self._start_reader(link)
            # An empty-shard joiner becomes a steal target right here.
            self._refill(link)
            self._done.notify_all()

    # -- the pump -------------------------------------------------------

    def _pump(self) -> None:
        """Fill every window, then wait for rows until done or dead."""
        with self._lock:
            # Under the lock: a joiner registering between connect and
            # pump is already stealing from these shards.
            need = {i for link in self._links for i in link.shard}
            need |= set(self._overflow)
            for link in self._links:
                need |= link.in_flight
            for link in self._links:
                self._refill(link)
            while any(link.alive or link.redialing
                      for link in self._links):
                if all(i in self._rows for i in need):
                    break
                self._done.wait(0.25)
            self._draining = True

    def _refill(self, link: _Link) -> None:
        """Top the node's window up from its shard, the overflow of
        dead nodes, or — stealing — the tail of the longest remaining
        shard.  Caller holds the lock."""
        while link.alive and len(link.in_flight) < link.window:
            index = self._next_index(link)
            if index is None:
                return
            link.in_flight.add(index)
            if self.journal is not None:
                # WAL ordering: the claim is durable before the job can
                # possibly execute anywhere.
                self.journal.record_start(
                    index, self._jobs[index]["job_id"], 1)
                self.journal.record_claim(index, link.label)
            try:
                send_frame(link.sock, {
                    "op": "job", "index": index,
                    "job": self._wire_job(self._jobs[index])})
            except (OSError, WireError):
                self._node_lost(link)
                return

    def _next_index(self, link: _Link) -> Optional[int]:
        if link.shard:
            return link.shard.popleft()
        if self._overflow:
            return self._overflow.popleft()
        # Steal from redialing shards too: a node mid-redial should not
        # strand its queue while other nodes idle.
        victim = max(
            (other for other in self._links
             if (other.alive or other.redialing) and other is not link
             and other.shard),
            key=lambda other: len(other.shard), default=None)
        if victim is None:
            return None
        self.steals += 1
        # Tail, not head: the head is what the victim itself dispatches
        # next, so stealing from the tail minimizes claim collisions.
        return victim.shard.pop()

    def _wire_job(self, job: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in job.items() if k != "_dist_key"}

    # -- per-node reader ------------------------------------------------

    def _read_loop(self, link: _Link, sock) -> None:
        while True:
            try:
                frame = recv_frame(sock)
            except (OSError, WireError):
                frame = None
            if frame is None:
                # Only the reader of the *current* session may declare
                # the link down — a stale reader of a replaced session
                # must not kill its successor.
                if link.sock is sock:
                    self._node_lost(link)
                return
            op = frame.get("op")
            if op == "event":
                emit_event(self._on_event,
                           ProgressEvent.from_dict(frame.get("event")
                                                   or {}))
            elif op == "result":
                self._claim(link, int(frame["index"]),
                            dict(frame["row"]))

    def _claim(self, link: _Link, index: int,
               row: Dict[str, Any]) -> None:
        with self._lock:
            link.in_flight.discard(index)
            if index in self._rows:
                # Stolen and also finished by its original owner: the
                # first row won the claim, this one is a duplicate (the
                # shared cache made it cheap).
                self.dup_results += 1
            else:
                link.executed += 1
                self._record_row(index, row)
            self._refill(link)
            # Top up every underfilled live link, not just the one that
            # settled: a joiner whose registration raced the initial
            # dial (no steal victims were alive yet) would otherwise
            # starve with an empty window for the rest of the batch.
            for other in self._links:
                if (other is not link and other.alive
                        and len(other.in_flight) < other.window):
                    self._refill(other)
            self._done.notify_all()

    # -- loss, retry, reassignment --------------------------------------

    def _node_lost(self, link: _Link) -> None:
        with self._lock:
            if not link.alive:
                return
            link.alive = False
            if self._draining:
                return
            if link.host is not None and link.redial_budget > 0:
                # Maybe just a blip: requeue the unacknowledged
                # in-flight at the head of the node's own shard and try
                # to re-establish before running the loss ladder.
                for index in sorted(
                        (i for i in link.in_flight
                         if i not in self._rows), reverse=True):
                    link.shard.appendleft(index)
                link.in_flight.clear()
                link.redialing = True
                threading.Thread(
                    target=self._redial, args=(link,),
                    name=f"repro-dist-redial-{link.label}",
                    daemon=True).start()
                self._done.notify_all()
                return
            self._declare_lost(link)

    def _declare_lost(self, link: _Link) -> None:
        """The loss ladder proper.  Caller holds the lock."""
        self.node_losses += 1
        self._reassign(link)
        for other in self._links:
            if other.alive:
                self._refill(other)
        self._done.notify_all()

    def _redial(self, link: _Link) -> None:
        """Bounded seeded-jitter re-establishment of a dialed node's
        session; falls through to the loss ladder when the budget is
        spent."""
        rng = backoff_rng(self.backoff_seed,
                          f"redial:{link.label}")
        attempt = 0
        while True:
            with self._lock:
                if self._draining:
                    link.redialing = False
                    self._done.notify_all()
                    return
                if link.redial_budget <= 0:
                    break
                link.redial_budget -= 1
                self.rpc_retries += 1
            attempt += 1
            time.sleep(retry_backoff(attempt, self.rpc_backoff_s, rng))
            try:
                self._open_session(link)
            except (OSError, WireError):
                continue
            with self._lock:
                link.redialing = False
                if self._draining:
                    try:
                        link.sock.close()
                    except OSError:
                        pass
                    self._done.notify_all()
                    return
                link.alive = True
                self._start_reader(link)
                self._refill(link)
                self._done.notify_all()
            return
        with self._lock:
            link.redialing = False
            if not self._draining:
                self._declare_lost(link)
            else:
                self._done.notify_all()

    def _reassign(self, link: _Link) -> None:
        """Move a dead node's claims and remaining shard to overflow.
        Caller holds the lock."""
        moved = [i for i in link.in_flight if i not in self._rows]
        moved.extend(link.shard)
        link.in_flight.clear()
        link.shard.clear()
        self.reassigned += len(moved)
        if self.journal is not None:
            for index in moved:
                self.journal.record_reassign(index, link.label)
        self._overflow.extend(moved)

    # -- endgame --------------------------------------------------------

    def _run_locally(self, missing: List[int]) -> None:
        """All nodes are gone and rows are missing: finish the batch
        with the local failure ladder (same scheduler, same rows)."""
        self.local_fallback_jobs = len(missing)
        scheduler = BatchScheduler(
            workers=None, timeout=self.timeout, retries=self.retries,
            cache=self.cache, degrade=self.degrade,
            heartbeat_s=self.heartbeat_s,
            hang_grace_s=self.hang_grace_s)
        remaining = [self._wire_job(self._jobs[i]) for i in missing]

        def on_dispatch(local_index: int, attempt: int) -> None:
            if self.journal is not None:
                index = missing[local_index]
                self.journal.record_start(
                    index, self._jobs[index]["job_id"], attempt)

        results = scheduler.run(remaining, on_event=self._on_event,
                                on_dispatch=on_dispatch)
        for local_pos, result in zip(missing, results):
            result.index = local_pos
            self._record_row(local_pos, result.as_dict())

    def _teardown(self) -> None:
        with self._lock:
            self._draining = True
        if self._join_sock is not None:
            # shutdown() before close(): close() alone does not wake
            # the accept loop parked in accept() on the listener.
            try:
                self._join_sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._join_sock.close()
            except OSError:
                pass
        for link in list(self._links):
            if link.sock is not None:
                try:
                    send_frame(link.sock, {"op": "bye"})
                except (OSError, WireError):
                    pass
                # shutdown() before close(): close() alone does not
                # interrupt a reader thread parked in recv().
                try:
                    link.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    link.sock.close()
                except OSError:
                    pass
        for link in list(self._links):
            if link.reader is not None:
                link.reader.join(timeout=2.0)
        if self._join_thread is not None:
            self._join_thread.join(timeout=2.0)
        if self._cache_server is not None:
            self._cache_server.close()

    # -- observability --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``dist`` section of the batch metrics document."""
        data: Dict[str, Any] = {
            "nodes": [{
                "node": link.label, "workers": link.workers,
                "alive": link.alive, "shard_jobs": link.shard_size,
                "executed": link.executed,
                "joined": link.host is None,
                "sessions": link.sessions,
            } for link in self._links],
            "steals": self.steals,
            "reassigned": self.reassigned,
            "node_losses": self.node_losses,
            "dup_results": self.dup_results,
            "local_fallback_jobs": self.local_fallback_jobs,
            "joins": self.joins,
            "reconnects": self.reconnects,
            "rpc_retries": self.rpc_retries,
            "spliced_rows": len(self._spliced),
        }
        if self._cache_server is not None:
            data["cache_server"] = dict(self._cache_server.counters)
        return data


__all__ = ["DistCoordinator", "parse_nodes", "WINDOW_FACTOR",
           "JOIN_HANDSHAKE_TIMEOUT_S"]
