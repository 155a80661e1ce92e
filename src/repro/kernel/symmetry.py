"""Word-parallel ISF symmetry checks over packed truth-table masks.

The DC step-1 machinery in :mod:`repro.symmetry.groups` is generic over
an *ops adapter* (see :class:`repro.symmetry.isf_symmetry.BddIsfOps`).
This module provides the kernel-side adapter: an ISF is held as a pair
of Python bignum masks (bit ``k`` = truth-table entry ``k``, the layout
of :func:`repro.boolfunc.truthtable.pack64`), and every symmetry
predicate is a handful of word-wide shift/AND/XOR operations against
*selector masks* precomputed per variable pair:

* entry ``k`` has ``x_a = (k // stride_a) & 1`` with
  ``stride_a = 2**(n-1-a)`` (MSB-first tables), so the cofactor plane
  ``x_a = 0`` is a periodic bit pattern — ``stride_a`` ones,
  ``stride_a`` zeros — constructible with one repunit multiplication;
* the T1 (nonequivalence) partner of an ``(x_i, x_j) = (0, 1)`` entry
  sits exactly ``stride_i - stride_j`` positions higher, the T2
  (equivalence) partner of a ``(0, 0)`` entry ``stride_i + stride_j``
  higher — so "merged cofactors equal" is one shifted XOR under the
  selector, for the *whole* plane at once.

Functions are lifted once per dispatch (through the cached, canonical
:func:`repro.kernel.convert.lift_mask`) and lowered back to
node-identical ISFs at the wrapper boundary, so the narrowed outputs
and the group structure are bit-identical to the BDD path.  Masks and
mask->node results are memoised in the manager's conversion cache, so
an assignment pass that changes nothing (the common case) lowers by
dictionary lookup instead of rebuilding the BDD — profiling showed
that rebuild dominating the whole dispatch at small supports.

Supports past :data:`repro.kernel.MAX_VARS` live variables take the BDD
path (a ``too_wide`` miss).  Below :data:`repro.kernel.SYMMETRY_MIN_VARS`
(the measured crossover) the wrapper-level dispatch declines — the BDD
path is usually faster there — without counting a miss, unless the
operands are dense enough (:data:`repro.kernel.SYMMETRY_DENSITY_FACTOR`)
that per-node BDD cost rivals the whole packed table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import kernel
from repro.boolfunc.spec import ISF
from repro.kernel import MISS_MISMATCH, STATS, fits, kernel_enabled
from repro.kernel.bitset import sel0
from repro.kernel.convert import (
    TableMismatchError,
    _conversion_cache,
    cache_put,
    lift_mask,
    lower_mask,
)
from repro.symmetry.isf_symmetry import SymmetryKind


class BitsISF:
    """An ISF as a pair of packed truth-table masks.

    ``hi == lo`` for completely specified functions (mask equality *is*
    function equality, so the complete case keeps its cheap check).
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi


class BitsIsfOps:
    """Kernel-domain symmetry operations over :class:`BitsISF` handles."""

    domain = "kernel"

    def __init__(self, bdd, variables: Sequence[int]) -> None:
        self.bdd = bdd
        self.variables = tuple(variables)
        self.axis = {v: i for i, v in enumerate(self.variables)}
        self.nvars = len(self.variables)
        self._pair_cache: Dict[Tuple[int, int, SymmetryKind],
                               Tuple[int, int]] = {}

    # -- conversion ------------------------------------------------------

    def lift(self, isf: ISF) -> BitsISF:
        lo = lift_mask(self.bdd, isf.lo, self.variables)
        hi = lo if isf.hi == isf.lo else \
            lift_mask(self.bdd, isf.hi, self.variables)
        return BitsISF(lo, hi)

    def lower(self, f: BitsISF) -> ISF:
        lo = lower_mask(self.bdd, f.lo, self.variables)
        hi = lo if f.hi == f.lo else \
            lower_mask(self.bdd, f.hi, self.variables)
        return ISF.create(self.bdd, lo, hi)

    # -- plane algebra ---------------------------------------------------

    def _pair(self, var_i: int, var_j: int,
              kind: SymmetryKind) -> Tuple[int, int]:
        """``(sel, delta)``: selector of the first merged cofactor's
        entries and the bit distance to each entry's merge partner."""
        ai, aj = self.axis[var_i], self.axis[var_j]
        if ai > aj:
            ai, aj = aj, ai  # both kinds merge an unordered cofactor pair
        cached = self._pair_cache.get((ai, aj, kind))
        if cached is not None:
            return cached
        si = 1 << (self.nvars - 1 - ai)
        sj = 1 << (self.nvars - 1 - aj)
        if kind is SymmetryKind.NONEQUIVALENCE:
            # (0, 1) entries; partner (1, 0) is +si - sj away.
            sel = sel0(self.nvars, ai) & (sel0(self.nvars, aj) << sj)
            delta = si - sj
        else:
            # (0, 0) entries; partner (1, 1) is +si + sj away.
            sel = sel0(self.nvars, ai) & sel0(self.nvars, aj)
            delta = si + sj
        self._pair_cache[(ai, aj, kind)] = (sel, delta)
        return sel, delta

    # -- predicates ------------------------------------------------------

    def support(self, f: BitsISF) -> Set[int]:
        supp = set()
        for var in self.variables:
            ax = self.axis[var]
            stride = 1 << (self.nvars - 1 - ax)
            sel = sel0(self.nvars, ax)
            if (f.lo ^ (f.lo >> stride)) & sel:
                supp.add(var)
            elif f.hi != f.lo and (f.hi ^ (f.hi >> stride)) & sel:
                supp.add(var)
        return supp

    def strongly_symmetric(self, f: BitsISF, var_i: int, var_j: int,
                           kind: SymmetryKind = SymmetryKind.NONEQUIVALENCE
                           ) -> bool:
        if var_i == var_j:
            return True
        sel, delta = self._pair(var_i, var_j, kind)
        if (f.lo ^ (f.lo >> delta)) & sel:
            return False
        if f.hi == f.lo:
            return True
        return not (f.hi ^ (f.hi >> delta)) & sel

    def potentially_symmetric(self, f: BitsISF, var_i: int, var_j: int,
                              kind: SymmetryKind = SymmetryKind.NONEQUIVALENCE
                              ) -> bool:
        if var_i == var_j:
            return True
        sel, delta = self._pair(var_i, var_j, kind)
        # lo of each merged cofactor must fit under the hi of the other.
        return not (f.lo & ~(f.hi >> delta) & sel
                    or f.lo & ~(f.hi << delta) & (sel << delta))

    # -- narrowing -------------------------------------------------------

    def make_symmetric(self, f: BitsISF, var_i: int, var_j: int,
                       kind: SymmetryKind = SymmetryKind.NONEQUIVALENCE
                       ) -> BitsISF:
        if var_i == var_j:
            return f
        if not self.potentially_symmetric(f, var_i, var_j, kind):
            raise ValueError("pair is not potentially symmetric")
        sel, delta = self._pair(var_i, var_j, kind)
        keep = ~(sel | (sel << delta))
        lo_m = (f.lo | (f.lo >> delta)) & sel
        new_lo = (f.lo & keep) | lo_m | (lo_m << delta)
        if f.hi == f.lo:
            # Complete + potentially symmetric means the merged cofactors
            # were already equal, so the interval stays a point.
            return BitsISF(new_lo, new_lo)
        hi_m = (f.hi & (f.hi >> delta)) & sel
        new_hi = (f.hi & keep) | hi_m | (hi_m << delta)
        return BitsISF(new_lo, new_hi)


def _dense_enough(bdd, isfs: Sequence[ISF], num_live: int) -> bool:
    """Below-crossover density override: serve a sub-``min_vars``
    support word-parallel when the operands' joint node count rivals the
    table size (``nodes * factor >= 2**num_live * num_isfs``).  The BDD
    path costs per *node* while the masks cost per *table*, so dense
    small functions — where the crossover's worst case never happens —
    are faster lifted (measured 1.2-1.3x at 10 vars) while sparse ones
    keep declining.  Factor ``0`` disables the override."""
    factor = kernel.SYMMETRY_DENSITY_FACTOR
    if not factor:
        return False
    roots = set()
    for isf in isfs:
        roots.add(isf.lo)
        roots.add(isf.hi)
    cache = _conversion_cache(bdd)
    key = ("nodes", tuple(sorted(roots)))
    nodes = cache.get(key)
    if nodes is None:
        nodes = bdd.node_count(*roots)
        cache_put(cache, key, nodes)
    return nodes * factor >= (1 << num_live) * max(1, len(isfs))


def bits_domain(bdd, isfs: Sequence[ISF], variables: Sequence[int],
                op: str, min_vars: int = 0
                ) -> Optional[Tuple[BitsIsfOps, List[BitsISF]]]:
    """Kernel ops + lifted handles when the live support fits, else
    ``None`` (miss counted under ``op``).  ``variables`` and every ISF
    support are covered by the table axes.

    ``min_vars`` is the measured BDD/kernel crossover: below it the
    caller's BDD path is *usually* faster than lifting through the
    kernel, so the dispatch declines *without* counting a miss (the
    kernel could serve; it just should not) — unless the operands are
    dense enough (``node_count * density_factor >= table_bits *
    num_isfs``) that the per-node BDD predicates rival the whole packed
    table, where the masks win.
    """
    if not kernel_enabled():
        return None
    live = set(variables)
    for isf in isfs:
        live |= bdd.support(isf.lo)
        if isf.hi != isf.lo:
            live |= bdd.support(isf.hi)
    if min_vars and len(live) < min_vars \
            and not _dense_enough(bdd, isfs, len(live)):
        return None
    if not fits(op, len(live)):
        return None
    ops = BitsIsfOps(bdd, sorted(live))
    try:
        return ops, [ops.lift(isf) for isf in isfs]
    except TableMismatchError:
        # A caller-supplied `variables` narrower than the raw supports
        # (stale/DC-shrunk ordering): degrade to the BDD route.
        STATS.record_miss(op, MISS_MISMATCH)
        return None
