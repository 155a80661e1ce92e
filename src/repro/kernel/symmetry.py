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

Each handle carries its own layout, the live support of the ISF it was
lifted from (like :class:`repro.kernel.dsd.MaskIsf`), so a multi-output
bundle is served whenever its widest single output fits, however wide
the union of the supports.  A pair with one variable outside a
handle's layout compares the handle's two cofactors on the other
variable — what the BDD path's restrict-chains compute, since a
cofactor on an absent variable is the function itself — and a pair
with both outside is trivially symmetric.  Narrowing on a one-outside
pair makes the result depend on the outside variable, so the handle is
first widened by it as a new top axis.

Functions are lifted once per dispatch (through the cached, canonical
:func:`repro.kernel.convert.lift_mask`) and lowered back to
node-identical ISFs at the wrapper boundary, so the narrowed outputs
and the group structure are bit-identical to the BDD path.  Masks and
mask->node results are memoised in the manager's conversion cache, so
an assignment pass that changes nothing (the common case) lowers by
dictionary lookup instead of rebuilding the BDD.

A handle past :data:`repro.kernel.MAX_VARS` live variables sends the
whole call down the BDD path (a ``too_wide`` miss).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.boolfunc.spec import ISF
from repro.kernel import fits, kernel_enabled
from repro.kernel.bitset import sel0
from repro.kernel.convert import lift_mask, lower_mask
from repro.symmetry.isf_symmetry import SymmetryKind

#: ``(sel, delta)`` of a pair (see :func:`_pair`), or ``None`` for a
#: pair with both variables outside the layout.
Pair = Optional[Tuple[int, int]]

_T1 = SymmetryKind.NONEQUIVALENCE

#: ``(nvars, axis_i, axis_j, t1) -> (sel, delta)`` for ``axis_i <
#: axis_j``: the selectors depend on the axes alone, so every layout of
#: a width shares them (at most 120 pairs per kind at 16 variables).
_PLANES: Dict[Tuple[int, int, int, bool], Tuple[int, int]] = {}


class Layout:
    """A table layout: the variable tuple (MSB first) and its axis map."""

    __slots__ = ("variables", "axis", "nvars")

    def __init__(self, variables: Tuple[int, ...]) -> None:
        self.variables = variables
        self.axis = {v: i for i, v in enumerate(variables)}
        self.nvars = len(variables)


class BitsISF:
    """An ISF as a pair of packed truth-table masks over its own layout.

    ``hi == lo`` for completely specified functions (mask equality *is*
    function equality, so the complete case keeps its cheap check).
    """

    __slots__ = ("lo", "hi", "layout")

    def __init__(self, lo: int, hi: int, layout: Layout) -> None:
        self.lo = lo
        self.hi = hi
        self.layout = layout


def _pair(layout: Layout, var_i: int, var_j: int,
          kind: SymmetryKind) -> Pair:
    """``(sel, delta)``: selector of the first merged cofactor's entries
    and the bit distance to each entry's merge partner; ``None`` when
    neither variable is in the layout."""
    n = layout.nvars
    ai, aj = layout.axis.get(var_i), layout.axis.get(var_j)
    if ai is None or aj is None:
        if ai is None and aj is None:
            return None
        # Restricting an absent variable is the identity, so for both
        # kinds the merged cofactors are the two halves of the other.
        ax = aj if ai is None else ai
        return sel0(n, ax), 1 << (n - 1 - ax)
    if ai > aj:
        ai, aj = aj, ai  # both kinds merge an unordered cofactor pair
    key = (n, ai, aj, kind is _T1)
    pair = _PLANES.get(key)
    if pair is None:
        si = 1 << (n - 1 - ai)
        sj = 1 << (n - 1 - aj)
        if kind is _T1:
            # (0, 1) entries; partner (1, 0) is +si - sj away.
            pair = sel0(n, ai) & (sel0(n, aj) << sj), si - sj
        else:
            # (0, 0) entries; partner (1, 1) is +si + sj away.
            pair = sel0(n, ai) & sel0(n, aj), si + sj
        _PLANES[key] = pair
    return pair


def _widen(f: BitsISF, var: int) -> BitsISF:
    """``f`` over ``var`` plus its layout, ``var`` the new top axis (the
    function does not depend on it: both halves are ``f``)."""
    shift = 1 << f.layout.nvars
    layout = Layout((var,) + f.layout.variables)
    lo = f.lo | (f.lo << shift)
    hi = lo if f.hi == f.lo else f.hi | (f.hi << shift)
    return BitsISF(lo, hi, layout)


class BitsIsfOps:
    """Kernel-domain symmetry operations over :class:`BitsISF` handles."""

    domain = "kernel"

    def __init__(self, bdd) -> None:
        self.bdd = bdd

    # -- conversion ------------------------------------------------------

    def lift(self, isf: ISF, variables: Tuple[int, ...]) -> BitsISF:
        lo = lift_mask(self.bdd, isf.lo, variables)
        hi = lo if isf.hi == isf.lo else \
            lift_mask(self.bdd, isf.hi, variables)
        return BitsISF(lo, hi, Layout(variables))

    def lower(self, f: BitsISF) -> ISF:
        variables = f.layout.variables
        lo = lower_mask(self.bdd, f.lo, variables)
        hi = lo if f.hi == f.lo else lower_mask(self.bdd, f.hi, variables)
        return ISF.create(self.bdd, lo, hi)

    # -- predicates ------------------------------------------------------

    def support(self, f: BitsISF) -> Set[int]:
        supp = set()
        n = f.layout.nvars
        for ax, var in enumerate(f.layout.variables):
            stride = 1 << (n - 1 - ax)
            sel = sel0(n, ax)
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
        pair = _pair(f.layout, var_i, var_j, kind)
        if pair is None:
            return True
        sel, delta = pair
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
        pair = _pair(f.layout, var_i, var_j, kind)
        if pair is None:
            return True
        sel, delta = pair
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
        axis = f.layout.axis
        if var_i not in axis or var_j not in axis:
            if var_i not in axis and var_j not in axis:
                return f
            f = _widen(f, var_j if var_i in axis else var_i)
        sel, delta = _pair(f.layout, var_i, var_j, kind)
        keep = ~(sel | (sel << delta))
        lo_m = (f.lo | (f.lo >> delta)) & sel
        new_lo = (f.lo & keep) | lo_m | (lo_m << delta)
        if f.hi == f.lo:
            # Complete + potentially symmetric means the merged cofactors
            # were already equal, so the interval stays a point.
            return BitsISF(new_lo, new_lo, f.layout)
        hi_m = (f.hi & (f.hi >> delta)) & sel
        new_hi = (f.hi & keep) | hi_m | (hi_m << delta)
        return BitsISF(new_lo, new_hi, f.layout)


def bits_domain(bdd, isfs: Sequence[ISF], op: str
                ) -> Optional[Tuple[BitsIsfOps, List[BitsISF]]]:
    """Kernel ops + lifted handles when every ISF's live support fits,
    else ``None`` (miss counted under ``op``).  Each handle's layout is
    its ISF's own sorted live support."""
    if not kernel_enabled():
        return None
    layouts = []
    for isf in isfs:
        live = bdd.support(isf.lo)
        if isf.hi != isf.lo:
            live |= bdd.support(isf.hi)
        layouts.append(tuple(sorted(live)))
    if not fits(op, max(map(len, layouts), default=0)):
        return None
    ops = BitsIsfOps(bdd)
    return ops, [ops.lift(isf, variables)
                 for isf, variables in zip(isfs, layouts)]
