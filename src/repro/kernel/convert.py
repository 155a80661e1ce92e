"""Lossless, canonical conversion between BDD nodes and mask tables.

Both directions preserve canonicity, which is the keystone of the
kernel's bit-identicality guarantee:

* :func:`bdd_to_mask` — equal functions (equal node ids, by ROBDD
  canonicity) produce equal masks;
* :func:`mask_to_bdd` — equal masks produce the *same* node id the
  BDD path would have computed, because nodes are built through the
  manager's unique table.

Masks are MSB-first over the given variable tuple (the package-wide
convention, see :meth:`repro.bdd.manager.BDD.from_truth_table`), in
the layout of :mod:`repro.kernel.bitset`.  Conversions to masks are
memoised per manager in ``BDD._kernel_cache``, which the manager
clears on :meth:`~repro.bdd.manager.BDD.set_order` (node ids go stale
there, so the cached masks would lie).
"""

from __future__ import annotations

from typing import Sequence

from repro.bdd.manager import BDD
from repro.kernel.bitset import sel0, split_int

#: Entry cap for the per-manager conversion cache (clear-on-threshold,
#: like the manager's computed table).  Kernel tables are at most 2**16
#: bits, so the entry cap alone bounds its memory.
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


def bdd_to_mask(bdd: BDD, f: int, variables: Sequence[int]) -> int:
    """Truth table of node ``f`` over ``variables`` as a mask.

    ``variables`` must cover the support of ``f``.  In level order the
    table is expanded top-down, one shift-and-OR per (node, depth)
    pair; in any other layout each node blends its children's full
    tables under the selector of its variable.
    """
    variables = tuple(variables)
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

    nvars = len(variables)
    var_of, low, high = bdd._var, bdd._low, bdd._high
    lvars = sorted(variables, key=bdd.var_level)
    # full[k]: the constant-1 table over k variables.
    full = [(1 << (1 << k)) - 1 for k in range(nvars + 1)]
    memo: dict = {}

    if lvars == list(variables):
        def expand(node: int, depth: int) -> int:
            if node <= 1:
                return full[nvars - depth] if node else 0
            mkey = (node, depth)
            res = memo.get(mkey)
            if res is None:
                half = 1 << (nvars - depth - 1)
                if var_of[node] == lvars[depth]:
                    res = expand(low[node], depth + 1) \
                        | (expand(high[node], depth + 1) << half)
                else:
                    res = expand(node, depth + 1)
                    res |= res << half
                memo[mkey] = res
            return res

        mask = expand(f, 0)
    else:
        # sel1[v]: the entries with v = 1.
        sel1 = {v: full[nvars] ^ sel0(nvars, axis)
                for axis, v in enumerate(variables)}

        def blend(node: int) -> int:
            if node <= 1:
                return full[nvars] if node else 0
            res = memo.get(node)
            if res is None:
                lo = blend(low[node])
                res = lo ^ ((lo ^ blend(high[node])) & sel1[var_of[node]])
                memo[node] = res
            return res

        mask = blend(f)
    cache_put(cache, key, mask)
    return mask


def mask_to_bdd(bdd: BDD, mask: int, variables: Sequence[int]) -> int:
    """Canonical BDD node of a mask table over ``variables``.

    Halves the table top-down on the top-level variable, with a memo on
    ``(depth, mask)``, so ``_make`` runs once per distinct subtable — at
    most the BDD's width at each level.  In level order the halves are
    contiguous; in any other layout :func:`split_int` gathers them.
    """
    variables = tuple(variables)
    nvars = len(variables)
    if mask < 0 or mask >> (1 << nvars):
        raise ValueError("mask wider than 2**len(variables) bits")
    lvars = sorted(variables, key=bdd.var_level)
    # strides[d]: the bit stride of lvars[d] once lvars[:d] are split off.
    strides = []
    layout = list(variables)
    for var in lvars:
        axis = layout.index(var)
        strides.append(1 << (len(layout) - 1 - axis))
        del layout[axis]
    full = [(1 << (1 << k)) - 1 for k in range(nvars + 1)]
    make = bdd._make
    memo: dict = {}

    def build(m: int, depth: int) -> int:
        if not m:
            return BDD.FALSE
        if m == full[nvars - depth]:
            return BDD.TRUE
        mkey = (depth, m)
        node = memo.get(mkey)
        if node is None:
            lo, hi = split_int(m, 1 << (nvars - depth), strides[depth])
            node = memo[mkey] = make(lvars[depth], build(lo, depth + 1),
                                     build(hi, depth + 1))
        return node

    return build(mask, 0)


def lift_mask(bdd: BDD, node: int, variables: Sequence[int]) -> int:
    """:func:`bdd_to_mask`, also remembering ``mask -> node`` so that
    lowering an unchanged mask (the common case for symmetry and DSD
    passes that narrow nothing) is a dict lookup, not a rebuild."""
    variables = tuple(variables)
    mask = bdd_to_mask(bdd, node, variables)
    cache = _conversion_cache(bdd)
    key = ("node", variables, mask)
    if key not in cache:
        cache_put(cache, key, node)
    return mask


def lower_mask(bdd: BDD, mask: int, variables: Sequence[int]) -> int:
    """:func:`mask_to_bdd` through the entries :func:`lift_mask` keeps."""
    variables = tuple(variables)
    cache = _conversion_cache(bdd)
    key = ("node", variables, mask)
    node = cache.get(key)
    if node is None:
        node = mask_to_bdd(bdd, mask, variables)
        cache_put(cache, key, node)
    return node


__all__ = ["TableMismatchError", "bdd_to_mask", "lift_mask", "lower_mask",
           "mask_to_bdd"]
