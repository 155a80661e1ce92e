"""Persistent result cache for decomposition jobs.

Results are content-addressed: the key is a SHA-256 over the function's
:meth:`~repro.boolfunc.spec.MultiFunction.canonical_key` (so renaming a
benchmark or re-reading the same PLA hits the same entry), the flow and
engine configuration, and a code-version tag that invalidates the whole
cache when the algorithms change.  Entries live one-per-file under a
two-level sharded directory; an in-memory LRU front absorbs repeated
lookups within a process.

Corruption is treated as a miss, never as data: an entry that fails to
parse, carries the wrong layout version, or does not match its own key
is deleted and recounted as ``corrupt`` — a poisoned cache rebuilds
itself instead of being trusted.

Chaos hardening: reads and writes route their raw bytes through the
``cache.read`` / ``cache.write`` fault sites (:mod:`repro.faults`), and
every failure mode is contained — an injected exception or memory
exhaustion during a read is a miss, during a write a skipped (counted)
write; a corrupted payload is caught by the existing poisoning checks
on the next read and rebuilt.  The cache is an accelerator, never a
correctness dependency, so no cache failure may escape to the caller.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import OrderedDict, deque
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Optional

from repro.faults import FaultInjected, fault_point

#: Bump to invalidate every persisted entry (layout changes).
CACHE_FORMAT_VERSION = 1

#: Tag mixed into every key; bump when engine/mapping output can change
#: for the same input (a stale hit would silently misreport results).
CACHE_CODE_VERSION = "repro-1.0.0/runtime-1"

#: Environment override for the default on-disk location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Sliding window of per-``get`` latency samples kept for the hit and
#: miss percentiles — recent behaviour, bounded memory.
LATENCY_WINDOW = 512

_HEX = set("0123456789abcdef")


def _is_shard_dir(name: str) -> bool:
    """A two-hex-character shard directory (anything else under the
    root, such as an older version's ``submemo/`` store, is not one)."""
    return len(name) == 2 and set(name) <= _HEX


def _latency_percentiles(samples) -> Dict[str, Any]:
    """Nearest-rank p50/p90/p99 (milliseconds) over a sample window."""
    data = sorted(samples)
    if not data:
        return {"p50_ms": None, "p90_ms": None, "p99_ms": None,
                "samples": 0}
    def rank(p: float) -> float:
        idx = max(0, math.ceil(p * len(data)) - 1)
        return round(data[idx] * 1000.0, 6)
    return {"p50_ms": rank(0.50), "p90_ms": rank(0.90),
            "p99_ms": rank(0.99), "samples": len(data)}


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def cache_key(func_key: str, flow: str, config: Dict[str, Any],
              dsd: bool = True) -> str:
    """Combine function content, flow and engine config into one key.

    ``dsd`` is the DSD pre-pass switch the result was mapped under (a
    job's ``dsd`` stamp, see :func:`repro.runtime.jobspec.make_job`).
    It changes the mapping, so a DSD-off run keys apart; the switch
    joins the key only when off, so default keys (and existing caches)
    are unchanged.
    """
    fields = {
        "func": func_key,
        "flow": flow,
        "config": config,
        "code": CACHE_CODE_VERSION,
    }
    if not dsd:
        fields["dsd"] = False
    blob = json.dumps(fields, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache:
    """On-disk result store with an in-memory LRU front.

    ``memory_limit`` bounds the LRU entry count (0 disables the front
    entirely); the disk side is unbounded and shared between processes —
    writes go through a same-directory temp file + ``os.replace`` so a
    concurrent reader never sees a half-written entry.

    Entries live at ``root/<2-hex shard>/<key>.json``.
    """

    #: Always ``"jobs"``: perfbench's traced cache wrappers are its only
    #: reader.
    namespace = "jobs"

    def __init__(self, root: "Path | str | None" = None,
                 memory_limit: int = 256) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.memory_limit = memory_limit
        self._lru: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: Writes skipped because persisting failed (I/O error, injected
        #: fault, memory exhaustion) — the payload stays correct in
        #: memory, the disk entry is simply absent.
        self.write_errors = 0
        #: Sliding windows of per-``get`` wall latencies, split by
        #: outcome — the hit window says what a (local or remote) hit
        #: costs, the miss window what a probe that found nothing costs.
        self._hit_latency: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._miss_latency: "deque[float]" = deque(maxlen=LATENCY_WINDOW)

    # -- paths ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- lookup/store ---------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or None on miss/corruption.

        An entry unlinked concurrently (a ``repro cache clear`` racing
        this reader) is a plain miss — never an exception and never
        counted as corruption.  Every call lands one latency sample in
        the hit or miss window (:data:`LATENCY_WINDOW`).
        """
        start = perf_counter()
        payload = self._lookup(key)
        window = self._hit_latency if payload is not None \
            else self._miss_latency
        window.append(perf_counter() - start)
        return payload

    def _lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The untimed lookup ladder (LRU front, then disk).  Subclasses
        layer extra tiers here so :meth:`get` keeps the counters and the
        latency windows for them."""
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            return cached
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            data = fault_point("cache.read", data)
            entry = json.loads(data.decode())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (FaultInjected, MemoryError):
            # Injected read failure: the entry on disk may be fine, so
            # this is a plain miss, not corruption.
            self.misses += 1
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._drop_corrupt(path)
            self.misses += 1
            return None
        if (not isinstance(entry, dict)
                or entry.get("cache_version") != CACHE_FORMAT_VERSION
                or entry.get("key") != key
                or not isinstance(entry.get("payload"), dict)):
            self._drop_corrupt(path)
            self.misses += 1
            return None
        payload = entry["payload"]
        self._remember(key, payload)
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (atomic on POSIX).

        Never raises: a failed write (I/O error, injected fault, memory
        exhaustion) is counted in ``write_errors`` and skipped — the
        caller keeps its in-memory result either way.  A chaos
        ``cache.write:corrupt`` bit-flip lands *in the persisted bytes*,
        exercising the poisoning checks on the next read.
        """
        path = self._path(key)
        entry = {"cache_version": CACHE_FORMAT_VERSION, "key": key,
                 "payload": payload}
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            data = json.dumps(entry, separators=(",", ":")).encode()
            data = fault_point("cache.write", data)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except (FaultInjected, MemoryError, OSError):
            self.write_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self._remember(key, payload)

    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        if self.memory_limit <= 0:
            return
        self._lru[key] = payload
        self._lru.move_to_end(key)
        while len(self._lru) > self.memory_limit:
            self._lru.popitem(last=False)

    def _drop_corrupt(self, path: Path) -> None:
        self.corrupt += 1
        try:
            path.unlink()
        except OSError:
            pass

    # -- maintenance ----------------------------------------------------

    def iter_files(self):
        """All entry files currently on disk.

        Robust against concurrent maintenance: a ``repro cache clear``
        (or an external cleanup) racing this iteration may remove the
        root, a shard or an entry mid-walk — every such disappearance
        is treated as "no entries there", never an exception.  The walk
        only descends into two-hex shard directories.
        """
        try:
            shards = sorted(self.root.iterdir())
        except (FileNotFoundError, NotADirectoryError):
            return
        for shard in shards:
            if not shard.is_dir() or not _is_shard_dir(shard.name):
                continue
            try:
                entries = sorted(shard.glob("*.json"))
            except OSError:
                continue
            for path in entries:
                yield path

    def disk_stats(self) -> Dict[str, int]:
        """Entry count and total bytes on disk."""
        entries = 0
        size = 0
        for path in self.iter_files():
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return {"entries": entries, "bytes": size}

    def clear(self, older_than_s: Optional[float] = None) -> int:
        """Delete the entries on disk; returns the count.

        ``older_than_s`` keeps entries touched within the last that-many
        seconds (mtime-based, so a fresh write or ``os.replace`` refresh
        protects an entry) — the backing of ``repro cache clear
        --older-than``.  An entry whose mtime cannot be read (racing
        delete) is left alone.
        """
        removed = 0
        cutoff = None
        if older_than_s is not None:
            cutoff = time.time() - older_than_s
        for path in list(self.iter_files()):
            if cutoff is not None:
                try:
                    if path.stat().st_mtime >= cutoff:
                        continue
                except OSError:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # The LRU may hold entries just unlinked; drop it wholesale
        # rather than tracking per-entry ages in memory.
        self._lru.clear()
        return removed

    def counter_stats(self) -> Dict[str, Any]:
        """Session counters and latency percentiles — no disk walk, so
        safe on every ``/metrics`` poll."""
        return {
            "hits": self.hits, "misses": self.misses,
            "corrupt": self.corrupt, "write_errors": self.write_errors,
            "memory_entries": len(self._lru),
            "hit_latency": _latency_percentiles(self._hit_latency),
            "miss_latency": _latency_percentiles(self._miss_latency),
        }

    def stats(self) -> Dict[str, Any]:
        """Session counters, latency percentiles and on-disk footprint."""
        data = self.disk_stats()
        data.update(self.counter_stats())
        return data
