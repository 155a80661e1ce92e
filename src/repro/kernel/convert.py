"""Lossless, canonical conversion between BDD nodes and truth tables.

Both directions preserve canonicity, which is the keystone of the
kernel's bit-identicality guarantee:

* :func:`bdd_to_bools` — equal functions (equal node ids, by ROBDD
  canonicity) produce byte-identical tables;
* :func:`bools_to_bdd` — equal tables produce the *same* node id the
  BDD path would have computed, because nodes are built bottom-up
  through the manager's unique table.

Tables are MSB-first over the given variable tuple (the package-wide
convention, see :meth:`repro.bdd.manager.BDD.from_truth_table`).
Conversions are memoised per manager in ``BDD._kernel_cache``, which
the manager clears on :meth:`~repro.bdd.manager.BDD.set_order` (node
ids go stale there, so the cached tables would lie).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bdd.manager import BDD

#: Entry cap for the per-manager conversion cache (clear-on-threshold,
#: like the manager's computed table).  Kernel tables are at most 2**16
#: bools, so the entry cap alone bounds its memory.
CACHE_LIMIT = 512


class TableMismatchError(ValueError):
    """A conversion was asked for a table whose variable tuple does not
    cover the function's support.

    This happens when a caller hands the kernel a *stale or shrunk*
    ordering — typically a support list computed from a DC-narrowed
    interval that no longer covers the raw node actually being
    converted.  Kernel dispatch sites catch this and degrade to the BDD
    route with a recorded miss instead of crashing the run.
    """

_FALSE1 = np.zeros(1, dtype=bool)
_TRUE1 = np.ones(1, dtype=bool)
_FALSE1.setflags(write=False)
_TRUE1.setflags(write=False)


def _conversion_cache(bdd: BDD) -> dict:
    cache = getattr(bdd, "_kernel_cache", None)
    if cache is None:
        cache = bdd._kernel_cache = {}
    return cache


def cache_put(cache: dict, key, value) -> None:
    """Insert with clear-on-threshold on the entry count."""
    if len(cache) >= CACHE_LIMIT:
        cache.clear()
    cache[key] = value


def bdd_to_bools(bdd: BDD, f: int, variables: Sequence[int]) -> np.ndarray:
    """Truth table of node ``f`` over ``variables`` as a boolean array.

    ``variables`` must cover the support of ``f``.  The returned array
    is read-only (it is shared through the per-manager cache).
    """
    variables = tuple(variables)
    nvars = len(variables)
    extra = bdd.support(f) - set(variables)
    if extra:
        raise TableMismatchError(
            f"function depends on variables outside the table: "
            f"{sorted(extra)}")
    cache = _conversion_cache(bdd)
    key = (f, variables)
    hit = cache.get(key)
    if hit is not None:
        return hit

    # Expand in level order (one concatenation per node/depth pair,
    # memoised), then transpose to the requested variable order.
    lvars = sorted(variables, key=bdd.var_level)
    memo: dict = {}

    def expand(node: int, depth: int) -> np.ndarray:
        if depth == nvars:
            return _TRUE1 if node == BDD.TRUE else _FALSE1
        mkey = (node, depth)
        res = memo.get(mkey)
        if res is None:
            if node > 1 and bdd.var_of(node) == lvars[depth]:
                res = np.concatenate((expand(bdd.low(node), depth + 1),
                                      expand(bdd.high(node), depth + 1)))
            else:
                half = expand(node, depth + 1)
                res = np.concatenate((half, half))
            memo[mkey] = res
        return res

    arr = expand(f, 0)
    if nvars and list(variables) != lvars:
        perm = [lvars.index(v) for v in variables]
        arr = arr.reshape((2,) * nvars).transpose(perm).reshape(-1)
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    cache_put(cache, key, arr)
    return arr


def bools_to_bdd(bdd: BDD, table, variables: Sequence[int]) -> int:
    """Canonical BDD node of a boolean truth table over ``variables``.

    Built bottom-up one level at a time, with each level's node pairs
    deduplicated so the manager's ``_make`` runs once per *distinct*
    pair — at most the BDD's width at that level — instead of once per
    table entry.  Wide levels dedupe through :func:`numpy.unique`;
    narrow ones use a plain dict (the numpy call overhead dominates on
    small arrays).
    """
    variables = tuple(variables)
    nvars = len(variables)
    arr = np.asarray(table, dtype=bool).reshape(-1)
    if arr.size != 1 << nvars:
        raise ValueError("truth table length must be 2**len(variables)")
    if len(bdd) >= (1 << 31):  # pragma: no cover - pairing needs 31-bit ids
        return bdd.from_truth_table([int(b) for b in arr], list(variables))

    lvars = sorted(variables, key=bdd.var_level)
    if nvars and list(variables) != lvars:
        perm = [variables.index(v) for v in lvars]
        arr = arr.reshape((2,) * nvars).transpose(perm).reshape(-1)

    make = bdd._make
    nodes = arr.astype(np.int64)
    depth = nvars - 1
    while depth >= 0 and nodes.size > 2048:
        var = lvars[depth]
        keys = (nodes[0::2] << 32) | nodes[1::2]
        uniq, inverse = np.unique(keys, return_inverse=True)
        made = np.empty(uniq.size, dtype=np.int64)
        for i, key in enumerate(uniq.tolist()):
            made[i] = make(var, key >> 32, key & 0xFFFFFFFF)
        nodes = made[inverse]
        depth -= 1
    lst = nodes.tolist()
    for d in range(depth, -1, -1):
        var = lvars[d]
        memo: dict = {}
        nxt = []
        for i in range(0, len(lst), 2):
            pair = (lst[i], lst[i + 1])
            node = memo.get(pair)
            if node is None:
                node = memo[pair] = make(var, pair[0], pair[1])
            nxt.append(node)
        lst = nxt
    return int(lst[0])
