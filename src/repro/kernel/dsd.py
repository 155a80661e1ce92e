"""Word-parallel split predicates for the tier-0 DSD pre-pass.

The structural pre-pass in :mod:`repro.decomp.dsd` probes an ISF for
cheap top-decompositions — dead variables, AND/OR/XOR literal peels,
single-variable MUX splits — before the compatible-class search ever
runs.  Each probe is generic over an *ops adapter* (the idiom of
:mod:`repro.kernel.symmetry`); this module provides the kernel-side
adapter, where an ISF lives as a pair of packed truth-table masks and
every split check is a handful of word-wide compares:

* the two cofactor halves of the interval along a variable come from
  one :func:`~repro.kernel.bitset.split_int` gather, already compacted
  to the reduced variable tuple;
* ``f = x AND g`` holds for *some* extension iff the onset of the
  ``x = 0`` half is empty (``not lo0``), ``f = x OR g`` iff the
  ``x = 1`` half's upper bound is full, ``f = x XOR g`` iff the
  remainder interval ``[lo0 | ~hi1, hi0 & ~lo1]`` is non-empty, and a
  variable is (DC-)dead iff the cofactor intervals intersect.

Handles carry their own (shrinking) variable tuple, so a probe that
peels ten literals does ten mask splits, never touching the BDD; only
the irreducible cores are lowered back — through the canonical
:func:`~repro.kernel.convert.mask_to_bdd`, so the engine sees exactly
the node ids the BDD route would have produced and the emitted network
is bit-identical either way.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.boolfunc.spec import ISF
from repro.kernel import MISS_MISMATCH, STATS, fits, kernel_enabled
from repro.kernel.bitset import sel0, split_int
from repro.kernel.convert import TableMismatchError, lift_mask, lower_mask


class MaskIsf:
    """An ISF as interval masks over an explicit variable tuple.

    Unlike :class:`repro.kernel.symmetry.BitsISF` the variable tuple is
    part of the handle — peels shrink it, and the masks are always
    ``2**len(variables)`` bits, compacted by the split gathers.
    ``hi is lo`` for completely specified functions.
    """

    __slots__ = ("variables", "lo", "hi")

    def __init__(self, variables: Tuple[int, ...], lo: int, hi: int) -> None:
        self.variables = variables
        self.lo = lo
        self.hi = hi


class MaskDsdOps:
    """Kernel-domain DSD split checks over :class:`MaskIsf` handles.

    The decision sequence mirrors :class:`repro.decomp.dsd.BddDsdOps`
    check for check, so both domains shatter a function identically.
    """

    domain = "kernel"

    def __init__(self, bdd) -> None:
        self.bdd = bdd
        self._full_cache: dict = {}

    def _full(self, nbits: int) -> int:
        """The all-ones mask of ``nbits`` bits (``~x`` via ``full ^ x``:
        bignum ``~`` is negative, so inversion goes through XOR)."""
        full = self._full_cache.get(nbits)
        if full is None:
            full = self._full_cache[nbits] = (1 << nbits) - 1
        return full

    # -- conversion ------------------------------------------------------

    def lift(self, isf: ISF, variables: Tuple[int, ...]) -> MaskIsf:
        lo = lift_mask(self.bdd, isf.lo, variables)
        hi = lo if isf.hi == isf.lo else \
            lift_mask(self.bdd, isf.hi, variables)
        return MaskIsf(variables, lo, hi)

    def lower(self, h: MaskIsf) -> ISF:
        lo = lower_mask(self.bdd, h.lo, h.variables)
        hi = lo if h.hi is h.lo or h.hi == h.lo \
            else lower_mask(self.bdd, h.hi, h.variables)
        return ISF.create(self.bdd, lo, hi)

    # -- split predicates ------------------------------------------------

    def admits_const(self, h: MaskIsf) -> Optional[int]:
        """0/1 when some extension of the interval is constant."""
        if not h.lo:
            return 0
        if h.hi == self._full(1 << len(h.variables)):
            return 1
        return None

    def support_vars(self, h: MaskIsf) -> Tuple[int, ...]:
        """Variables at least one end of the interval depends on,
        ascending (matches ``sorted(ISF.support)`` on the BDD side)."""
        n = len(h.variables)
        complete = h.hi is h.lo or h.hi == h.lo
        out = []
        for axis, var in enumerate(h.variables):
            stride = 1 << (n - 1 - axis)
            sel = sel0(n, axis)
            if (h.lo ^ (h.lo >> stride)) & sel:
                out.append(var)
            elif not complete and (h.hi ^ (h.hi >> stride)) & sel:
                out.append(var)
        return tuple(out)

    def _halves(self, h: MaskIsf, var: int):
        n = len(h.variables)
        axis = h.variables.index(var)
        stride = 1 << (n - 1 - axis)
        nbits = 1 << n
        lo0, lo1 = split_int(h.lo, nbits, stride)
        if h.hi is h.lo or h.hi == h.lo:
            hi0, hi1 = lo0, lo1
        else:
            hi0, hi1 = split_int(h.hi, nbits, stride)
        rest = h.variables[:axis] + h.variables[axis + 1:]
        return rest, lo0, hi0, lo1, hi1

    def try_peel(self, h: MaskIsf, var: int):
        """``(kind, positive, remainder)`` for the first applicable peel
        of ``var`` — dead, AND, OR, XOR in that order — or ``None``."""
        rest, lo0, hi0, lo1, hi1 = self._halves(h, var)
        full = self._full(1 << len(rest))
        if not (lo0 & (full ^ hi1)) and not (lo1 & (full ^ hi0)):
            # Cofactor intervals intersect: some extension ignores var.
            return ("dead", True, MaskIsf(rest, lo0 | lo1, hi0 & hi1))
        if not lo0:
            return ("and", True, MaskIsf(rest, lo1, hi1))
        if not lo1:
            return ("and", False, MaskIsf(rest, lo0, hi0))
        if hi1 == full:
            return ("or", True, MaskIsf(rest, lo0, hi0))
        if hi0 == full:
            return ("or", False, MaskIsf(rest, lo1, hi1))
        # f = var XOR g admits an extension iff the g-interval
        # [lo0 | ~hi1, hi0 & ~lo1] is non-empty.
        g_lo = lo0 | (full ^ hi1)
        g_hi = hi0 & (full ^ lo1)
        if not (g_lo & (full ^ g_hi)):
            return ("xor", True, MaskIsf(rest, g_lo, g_hi))
        return None

    def cofactors(self, h: MaskIsf, var: int) -> Tuple[MaskIsf, MaskIsf]:
        rest, lo0, hi0, lo1, hi1 = self._halves(h, var)
        return MaskIsf(rest, lo0, hi0), MaskIsf(rest, lo1, hi1)


def dsd_mask_domain(bdd, isf: ISF, op: str = "dsd_probe"
                    ) -> Optional[Tuple[MaskDsdOps, MaskIsf]]:
    """Kernel ops + lifted handle when the ISF's live support fits the
    kernel, else ``None`` (miss counted under ``op``, except when the
    kernel is simply disabled)."""
    if not kernel_enabled():
        return None
    live = bdd.support(isf.lo)
    if isf.hi != isf.lo:
        live = live | bdd.support(isf.hi)
    if not fits(op, len(live)):
        return None
    ops = MaskDsdOps(bdd)
    try:
        return ops, ops.lift(isf, tuple(sorted(live)))
    except TableMismatchError:
        STATS.record_miss(op, MISS_MISMATCH)
        return None


__all__ = ["MaskDsdOps", "MaskIsf", "dsd_mask_domain"]
