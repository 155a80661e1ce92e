"""Batch-execution runtime: one executor, one failure ladder, a cache.

The pillars (see ``docs/RUNTIME.md`` for the design discussion):

* :mod:`repro.runtime.pool` — the :class:`WorkerPool`, the only code
  that starts, watches, kills and reaps job processes (typed
  crash/timeout/hang futures, heartbeats, :class:`ProgressEvent`
  callbacks); batch, ``repro serve`` and dist nodes all run jobs on it;
* :mod:`repro.runtime.scheduler` — :func:`run_ladder`, the failure
  policy over the pool's futures (crash retried with seeded backoff,
  timeout/hang/exception degraded to the trivial Shannon/MUX mapping),
  and :class:`BatchScheduler`, the thin batch driver over it;
* :mod:`repro.runtime.cache` — a content-addressed on-disk
  :class:`ResultCache` (``canonical_key`` + flow + engine config + code
  version) with an in-memory LRU front, behind ``repro cache
  {stats,clear}``;
* :mod:`repro.runtime.jobspec` — the JSON-able job wire format, manifest
  parsing and the worker-side job execution (with its heartbeat
  thread);
* :mod:`repro.runtime.journal` — the crash-safe write-ahead
  :class:`BatchJournal` behind ``repro batch --journal/--resume``.

Quickstart::

    from repro.runtime import BatchScheduler, ResultCache, make_job
    jobs = [make_job({"kind": "benchmark", "name": n})
            for n in ("rd53", "rd73", "rd84")]
    results = BatchScheduler(workers=4, timeout=120,
                             cache=ResultCache("/tmp/repro-cache")).run(jobs)
"""

from repro.runtime.cache import (
    CACHE_CODE_VERSION,
    CACHE_FORMAT_VERSION,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.runtime.jobspec import (
    build_function,
    execute_job,
    make_job,
    parse_manifest,
    parse_manifest_entry,
    source_from_name,
    source_label,
)
from repro.runtime.pool import (
    JobHung,
    JobTimeout,
    PoolClosed,
    PoolError,
    ProgressEvent,
    WorkerCrash,
    WorkerPool,
    resolve_workers,
)
from repro.runtime.journal import (
    BatchJournal,
    JournalError,
    journal_binding,
    load_journal,
)
from repro.runtime.scheduler import (
    BatchScheduler,
    JobResult,
    degraded_record,
    run_ladder,
    summarize,
    summarize_rows,
)

__all__ = [
    "JobHung",
    "JobTimeout",
    "PoolClosed",
    "PoolError",
    "ProgressEvent",
    "WorkerCrash",
    "WorkerPool",
    "resolve_workers",
    "BatchJournal",
    "JournalError",
    "journal_binding",
    "load_journal",
    "BatchScheduler",
    "JobResult",
    "ResultCache",
    "CACHE_CODE_VERSION",
    "CACHE_FORMAT_VERSION",
    "cache_key",
    "default_cache_dir",
    "build_function",
    "execute_job",
    "make_job",
    "parse_manifest",
    "parse_manifest_entry",
    "source_from_name",
    "source_label",
    "degraded_record",
    "run_ladder",
    "summarize",
    "summarize_rows",
]
