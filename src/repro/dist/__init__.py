"""Distributed batch tier: coordinator, worker nodes, remote cache.

The single-host runtime already has the primitives a distributed tier
needs — jobs are JSON-able dicts keyed by a content sha256
(:func:`repro.runtime.cache.cache_key`), the failure ladder
(:func:`repro.runtime.scheduler.run_ladder`) is deterministic, and
progress flows through one
:class:`~repro.runtime.pool.ProgressEvent` callback API.  This package
scales that runtime across machines without changing any of it:

* :mod:`repro.dist.wire` — length-prefixed JSON frames over TCP, the
  one codec every dist connection speaks;
* :mod:`repro.dist.cachenet` — a shared :class:`~repro.runtime.cache
  .ResultCache` served over the wire (:class:`~repro.dist.cachenet
  .CacheServer`) and its node-side read-through / write-behind client
  (:class:`~repro.dist.cachenet.RemoteCache`) — any node's hit is every
  node's hit;
* :mod:`repro.dist.node` — ``repro dist serve-node``: a worker node
  that runs shipped jobs on one :class:`~repro.runtime.pool.WorkerPool`
  per coordinator session through the batch per-job path,
  :meth:`~repro.runtime.scheduler.BatchScheduler.run_job` (same ladder,
  same row shape), and streams events/results back;
* :mod:`repro.dist.coordinator` — shards a manifest across nodes by
  cache-key hash, refills windows as results land, steals from
  straggler shards for idle nodes, reassigns a dead node's jobs, and
  merges rows byte-identically to a single-host run.

Failure containment extends the local ladder one level up: a fault
*inside* a node degrades the job (local ladder), the *loss* of a node
is first answered with bounded seeded-jitter redial, then reassignment
(coordinator), and losing every node falls back to running the
remainder locally — the batch always completes.  Two robustness layers
sit on top: the coordinator journals ``start``/``done`` plus
``claim``/``reassign`` records through the PR 5 write-ahead journal
(``repro batch --nodes --journal``; a SIGKILL'd coordinator resumes
with ``--resume``), and membership is dynamic — late nodes register
mid-batch through the coordinator's join listener (``repro dist
serve-node --join``) and dropped nodes re-register in place.
"""

from repro.dist.cachenet import CacheServer, RemoteCache
from repro.dist.coordinator import DistCoordinator, parse_nodes
from repro.dist.node import NodeServer
from repro.dist.wire import (
    WireError,
    backoff_rng,
    connect_with_retry,
    recv_frame,
    retry_backoff,
    send_frame,
)

__all__ = [
    "CacheServer",
    "DistCoordinator",
    "NodeServer",
    "RemoteCache",
    "WireError",
    "backoff_rng",
    "connect_with_retry",
    "parse_nodes",
    "recv_frame",
    "retry_backoff",
    "send_frame",
]
