"""Sub-ISF computed table: canonical subfunction memoization.

The paper's three-step don't-care assignment deliberately steers
different outputs (and recursion levels) toward *identical* predecessor
blocks — so the same sub-ISF bundle keeps reappearing: across outputs
within one run, across jobs in a batch, across workers of the serve
pool, across nodes of a distributed batch.  This module memoizes the
engine's work at that granularity.

**Key** — :func:`repro.decomp.encoding.sub_isf_key`: a canonical hash of
the bundle's interval BDDs with variables identified by rank in the
sorted live support, plus a config tag covering every engine knob that
can change the result.

**Payload** — a *splice tape*: the ordered ``add_lut`` calls the cold
search made for the bundle, with fanins expressed as position-relative
references (input rank / constant / earlier tape entry) plus one result
reference per output.  Replaying the tape through the live network's
``add_lut`` re-creates exactly the LUTs the cold search would have
created — structural hashing, degenerate-table folding and fresh-name
allocation all resolve *in the target context*, which is what makes a
splice bit-identical to a cold search rather than merely equivalent.

**Layers** — consulted in order, promoted upward on hit:

1. the engine's per-run table (``DecompositionEngine`` holds it;
   cleared by ``reset()``) — this is where cross-output hits land;
2. a process-wide byte-budgeted LRU (:class:`SubMemoStore.warm`) shared
   by every engine in the process — warm pool workers hit here;
3. a persistent ``ResultCache`` namespace (``submemo``) with the cache's
   atomic writes and poisoning checks — jobs and batches share it;
4. an optional :class:`~repro.dist.cachenet.RemoteCache` so serve pools
   and multi-node batches share warm subfunctions across hosts.

**Safety** — a payload is structurally validated and (under
``REPRO_SUBMEMO_VERIFY``, default on in tests) semantically verified in
pure BDD space *before* any network mutation; a corrupt or colliding
entry degrades to a cold search and is invalidated, never spliced.  The
memo is an accelerator, not a correctness dependency.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDD
from repro.bdd.ops import lut_function

#: ``off``/``0``/``false`` disables the sub-ISF memo everywhere.
SUBMEMO_ENV = "REPRO_SUBMEMO"

#: Byte budget of the process-warm layer (and the engine's per-run
#: table); default 64 MiB.
SUBMEMO_BYTES_ENV = "REPRO_SUBMEMO_BYTES"

#: Force splice-time semantic verification on (``1``) or off (``0``).
#: Unset, verification defaults to on under pytest and off elsewhere.
SUBMEMO_VERIFY_ENV = "REPRO_SUBMEMO_VERIFY"

#: Directory of the persistent layer.  Falls back to ``REPRO_CACHE_DIR``
#: when unset; when neither is set the memo stays in-process only (unit
#: tests and ad-hoc runs must not silently grow ``~/.cache/repro``).
SUBMEMO_DIR_ENV = "REPRO_SUBMEMO_DIR"

#: ``host:port`` of a :mod:`repro.dist.cachenet` server to share the
#: memo across hosts (read-through, write-behind).
SUBMEMO_REMOTE_ENV = "REPRO_SUBMEMO_REMOTE"

DEFAULT_BYTE_BUDGET = 64 * 1024 * 1024

#: Entries larger than this are not stored: a giant tape is nearly as
#: expensive to verify/splice as to recompute, and would evict hundreds
#: of useful entries from the warm layer.
MAX_ENTRY_BYTES = 1 << 20

#: Payload layout version (checked on read; bump on tape format change).
PAYLOAD_VERSION = 1

# Fanin/result references: non-negative ints index the tape,
# REF_CONST0/REF_CONST1 are the constants, -(rank + 3) is the input
# with that rank in the bundle's sorted live support.
REF_CONST0 = -1
REF_CONST1 = -2
_REF_INPUT_BASE = 3


def input_ref(rank: int) -> int:
    """Reference encoding of the ``rank``-th support input."""
    return -(rank + _REF_INPUT_BASE)


def input_rank(ref: int) -> int:
    """Inverse of :func:`input_ref` (caller guarantees an input ref)."""
    return -ref - _REF_INPUT_BASE


def code_tag() -> str:
    """Algorithm-version tag folded into every sub-ISF key: a stale
    entry recorded by an older engine must miss, exactly like the
    job-level cache."""
    from repro.runtime.cache import CACHE_CODE_VERSION
    return f"{CACHE_CODE_VERSION}/submemo-{PAYLOAD_VERSION}"


def _truthy(value: Optional[str], default: bool) -> bool:
    if value is None:
        return default
    return value.strip().lower() not in ("", "0", "off", "false", "no")


def submemo_enabled() -> bool:
    """The :data:`SUBMEMO_ENV` switch (default on)."""
    return _truthy(os.environ.get(SUBMEMO_ENV), True)


def verify_enabled() -> bool:
    """Splice-time semantic verification: forced by
    :data:`SUBMEMO_VERIFY_ENV`, else on exactly under pytest."""
    env = os.environ.get(SUBMEMO_VERIFY_ENV)
    if env is not None:
        return _truthy(env, True)
    return "PYTEST_CURRENT_TEST" in os.environ


def byte_budget() -> int:
    """Warm-layer byte budget (:data:`SUBMEMO_BYTES_ENV`)."""
    env = os.environ.get(SUBMEMO_BYTES_ENV)
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return DEFAULT_BYTE_BUDGET


# ---------------------------------------------------------------------
# Payload construction / validation / verification
# ---------------------------------------------------------------------


def make_payload(n_inputs: int, tape: Sequence[Tuple[Sequence[int], str,
                                                     Optional[str]]],
                 out_refs: Sequence[int]) -> Dict[str, Any]:
    """Assemble a splice-tape payload (see the module docstring)."""
    return {
        "v": PAYLOAD_VERSION,
        "n": int(n_inputs),
        "m": len(out_refs),
        "tape": [[list(fanins), table, hint]
                 for fanins, table, hint in tape],
        "out": list(out_refs),
    }


def payload_bytes(payload: Dict[str, Any]) -> int:
    """Serialized size estimate used for the byte budgets."""
    return len(json.dumps(payload, separators=(",", ":")))


def _valid_ref(ref: Any, n_inputs: int, tape_pos: int) -> bool:
    if not isinstance(ref, int) or isinstance(ref, bool):
        return False
    if ref >= 0:
        return ref < tape_pos
    if ref in (REF_CONST0, REF_CONST1):
        return True
    rank = -ref - _REF_INPUT_BASE
    return 0 <= rank < n_inputs


def validate_payload(payload: Any, n_inputs: int,
                     m_outputs: int) -> bool:
    """Structural poisoning check; must pass before any splice.

    Cheap and total: every field type, every reference bound, every
    table shape.  A payload that fails here is treated exactly like a
    cache miss (and invalidated by the caller) — never spliced, never
    raised.
    """
    if not isinstance(payload, dict):
        return False
    if payload.get("v") != PAYLOAD_VERSION:
        return False
    if payload.get("n") != n_inputs or payload.get("m") != m_outputs:
        return False
    tape = payload.get("tape")
    out = payload.get("out")
    if not isinstance(tape, list) or not isinstance(out, list):
        return False
    if len(out) != m_outputs or len(tape) > 1 << 20:
        return False
    for pos, entry in enumerate(tape):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            return False
        fanins, table, hint = entry
        if not isinstance(fanins, list) or not 1 <= len(fanins) <= 16:
            return False
        if any(not _valid_ref(ref, n_inputs, pos) for ref in fanins):
            return False
        if not isinstance(table, str) \
                or len(table) != (1 << len(fanins)) \
                or set(table) - {"0", "1"}:
            return False
        if hint is not None and not isinstance(hint, str):
            return False
    return all(_valid_ref(ref, n_inputs, len(tape)) for ref in out)


def payload_output_bdds(bdd: BDD, payload: Dict[str, Any],
                        input_funcs: Sequence[int]) -> List[int]:
    """Evaluate the tape in pure BDD space; one function per output.

    ``input_funcs[rank]`` is the BDD of the ``rank``-th support input.
    Used by splice-time verification: each output function must lie in
    the live call's ISF interval *before* the tape touches the network.
    Each LUT costs ``2^k - 1`` ITE calls (``k <= n_lut``, see
    :func:`repro.bdd.ops.lut_function`).
    """
    funcs: List[int] = []

    def resolve(ref: int) -> int:
        if ref >= 0:
            return funcs[ref]
        if ref == REF_CONST0:
            return BDD.FALSE
        if ref == REF_CONST1:
            return BDD.TRUE
        return input_funcs[-ref - _REF_INPUT_BASE]

    for fanins, table, _hint in payload["tape"]:
        funcs.append(lut_function(bdd, [resolve(ref) for ref in fanins],
                                  map(int, table)))
    return [resolve(ref) for ref in payload["out"]]


# ---------------------------------------------------------------------
# The layered store
# ---------------------------------------------------------------------


class SubMemoStore:
    """Process-level layers of the sub-ISF memo (warm / disk / remote).

    The engine's per-run table sits above this; everything here is
    shared by every engine in the process.  All layers key on the same
    canonical sub-ISF key and hold the same JSON payload shape, so an
    entry can be promoted upward verbatim.
    """

    def __init__(self, byte_limit: Optional[int] = None,
                 disk_root: "str | os.PathLike | None" = None,
                 remote: Optional[str] = None) -> None:
        self.byte_limit = byte_budget() if byte_limit is None \
            else byte_limit
        #: key -> (payload, size); insertion order == LRU order.
        self.warm: "OrderedDict[str, Tuple[Dict[str, Any], int]]" = \
            OrderedDict()
        self.warm_bytes = 0
        self.disk = None
        if disk_root is not None:
            from repro.runtime.cache import ResultCache
            # memory_limit=0: the warm layer above already is the
            # in-memory front; a second LRU would double-count bytes.
            self.disk = ResultCache(disk_root, memory_limit=0,
                                    namespace="submemo")
        self.remote = None
        if remote:
            host, _, port = remote.rpartition(":")
            from repro.dist.cachenet import RemoteCache
            self.remote = RemoteCache(host or "127.0.0.1", int(port),
                                      namespace="submemo")
        self.counters: Dict[str, int] = {
            "warm_hits": 0, "disk_hits": 0, "remote_hits": 0,
            "misses": 0, "stores": 0, "store_bytes": 0,
            "warm_evictions": 0, "invalidated": 0, "oversize": 0,
        }

    # -- lookup --------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self.warm.get(key)
        if entry is not None:
            self.warm.move_to_end(key)
            self.counters["warm_hits"] += 1
            return entry[0]
        for layer, counter in ((self.disk, "disk_hits"),
                               (self.remote, "remote_hits")):
            if layer is None:
                continue
            payload = layer.get(key)
            if payload is not None:
                self.counters[counter] += 1
                self._warm_put(key, payload, payload_bytes(payload))
                return payload
        self.counters["misses"] += 1
        return None

    # -- store ---------------------------------------------------------

    def put(self, key: str, payload: Dict[str, Any],
            size: Optional[int] = None) -> None:
        size = payload_bytes(payload) if size is None else size
        if size > MAX_ENTRY_BYTES:
            self.counters["oversize"] += 1
            return
        self.counters["stores"] += 1
        self.counters["store_bytes"] += size
        self._warm_put(key, payload, size)
        if self.disk is not None:
            self.disk.put(key, payload)
        if self.remote is not None:
            self.remote.put(key, payload)

    def _warm_put(self, key: str, payload: Dict[str, Any],
                  size: int) -> None:
        if self.byte_limit <= 0 or size > self.byte_limit:
            return
        old = self.warm.pop(key, None)
        if old is not None:
            self.warm_bytes -= old[1]
        self.warm[key] = (payload, size)
        self.warm_bytes += size
        while self.warm_bytes > self.byte_limit and self.warm:
            _, (_, evicted) = self.warm.popitem(last=False)
            self.warm_bytes -= evicted
            self.counters["warm_evictions"] += 1

    def invalidate(self, key: str) -> None:
        """Drop a poisoned entry from every local layer (the remote
        server keeps its copy; its next reader re-verifies anyway)."""
        self.counters["invalidated"] += 1
        old = self.warm.pop(key, None)
        if old is not None:
            self.warm_bytes -= old[1]
        if self.disk is not None:
            self.disk.invalidate(key)

    # -- lifecycle / observability -------------------------------------

    def flush(self) -> None:
        """Block until write-behind remote puts have landed (the engine
        calls this at the end of every run; otherwise queued writes
        could die with a worker)."""
        if self.remote is not None:
            self.remote.flush()

    def stats(self) -> Dict[str, Any]:
        data = dict(self.counters)
        data["warm_entries"] = len(self.warm)
        data["warm_bytes"] = self.warm_bytes
        data["byte_limit"] = self.byte_limit
        data["layers"] = {
            "disk": self.disk is not None,
            "remote": self.remote is not None,
        }
        return data


_STORE: Optional[SubMemoStore] = None
_STORE_SIG: Optional[Tuple] = None


def _env_signature() -> Tuple:
    return (os.getpid(),
            os.environ.get(SUBMEMO_DIR_ENV),
            os.environ.get("REPRO_CACHE_DIR"),
            os.environ.get(SUBMEMO_REMOTE_ENV),
            os.environ.get(SUBMEMO_BYTES_ENV))


def default_store() -> SubMemoStore:
    """The process-wide store, rebuilt when the environment (or the
    process, after a fork — an inherited remote socket must not be
    shared) changes.  The persistent layer activates only when
    ``REPRO_SUBMEMO_DIR`` or ``REPRO_CACHE_DIR`` names a directory."""
    global _STORE, _STORE_SIG
    sig = _env_signature()
    if _STORE is None or sig != _STORE_SIG:
        disk_root = os.environ.get(SUBMEMO_DIR_ENV) \
            or os.environ.get("REPRO_CACHE_DIR") or None
        _STORE = SubMemoStore(disk_root=disk_root,
                              remote=os.environ.get(SUBMEMO_REMOTE_ENV))
        _STORE_SIG = sig
    return _STORE


def reset_default_store() -> None:
    """Drop the process singleton (tests; also frees the warm layer)."""
    global _STORE, _STORE_SIG
    if _STORE is not None:
        _STORE.flush()
    _STORE = None
    _STORE_SIG = None


__all__ = [
    "SUBMEMO_ENV", "SUBMEMO_BYTES_ENV", "SUBMEMO_VERIFY_ENV",
    "SUBMEMO_DIR_ENV", "SUBMEMO_REMOTE_ENV", "PAYLOAD_VERSION",
    "REF_CONST0", "REF_CONST1", "input_ref", "input_rank", "code_tag",
    "submemo_enabled",
    "verify_enabled", "byte_budget", "make_payload", "payload_bytes",
    "validate_payload", "payload_output_bdds", "SubMemoStore",
    "default_store", "reset_default_store",
]
