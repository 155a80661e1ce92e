"""Tier-0 structural pre-pass: shatter functions before the ncc search.

The compatible-class search (``rank_bound_sets`` plus candidate
evaluation) costs exponential work in the bound-set width even through
the word-parallel kernel, yet most benchmark outputs wear a cheap
*structural shell*: literals ANDed/ORed/XORed onto a smaller core, a
selector variable multiplexing two much narrower halves, or variables
the DC interval lets us drop outright.  This pass peels that shell with
a handful of mask compares per check — tier 0 of the dispatch hierarchy
— and hands only the irreducible cores to the search.

Split rules, over an interval ``[lo, hi]`` and its cofactors
``(lo0, hi0)``/``(lo1, hi1)`` with respect to a variable ``x`` (each
rule asks whether *some extension* of the ISF has the shape, so every
hit doubles as a don't-care assignment):

* constant — ``lo`` empty (some extension is 0) or ``hi`` full;
* dead — the cofactor intervals intersect: remainder
  ``[lo0 | lo1, hi0 & hi1]``;
* ``f = x AND g`` — ``lo0`` empty: remainder ``[lo1, hi1]`` (negated
  literal when ``lo1`` is empty instead);
* ``f = x OR g`` — ``hi1`` full: remainder ``[lo0, hi0]`` (negated
  literal when ``hi0`` is full instead);
* ``f = x XOR g`` — the interval ``[lo0 | ~hi1, hi0 & ~lo1]`` is
  non-empty: that interval is the remainder;
* MUX — no rule fired for any support variable: split on the selector
  whose branches *both* shed at least :data:`MUX_MIN_SHRINK` support
  variables, recursing on the branches.

The checks run in a fixed order (dead, AND+, AND-, OR+, OR-, XOR,
ascending variable, first hit wins and the scan restarts), so the
decision sequence is a pure function of the interval.  Both ops
adapters — :class:`BddDsdOps` here and
:class:`repro.kernel.dsd.MaskDsdOps` in word space — implement the
checks over the same order, and cores are lowered through the canonical
``mask_to_bdd``, so the emitted network is bit-identical whether or
not the kernel served the probe.

The result of a probe is a *plan tree* (:class:`DsdConst`,
:class:`DsdChain`, :class:`DsdMux`, :class:`DsdCore`), or ``None`` when
nothing fired; the engine emits chains as packed ``(n_lut - 1)``-literal
LUTs, MUX nodes through its shared MUX emitter, and feeds cores back
into the normal per-level flow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.kernel import _OFF_VALUES, STATS as KERNEL_STATS
from repro.kernel.dsd import dsd_mask_domain

#: Minimum support-variable shed required of *both* branches before a
#: MUX split fires.  1 would make MUX subsume a plain Shannon step and
#: steal decompositions the ncc search does strictly better on; 2 keeps
#: it to selectors that genuinely partition the support (tuned against
#: the Table 1 suite: no circuit's LUT count regresses).
MUX_MIN_SHRINK = 2


def dsd_enabled() -> bool:
    """Is the tier-0 pre-pass enabled?  (``REPRO_DSD=off`` disables.)

    Read per run so tests and the CLI's ``--no-dsd`` can flip it.
    """
    return os.environ.get("REPRO_DSD", "").strip().lower() \
        not in _OFF_VALUES


# -- plan tree ------------------------------------------------------------

@dataclass
class DsdConst:
    """Some extension of the probed interval is the constant ``value``."""

    value: int


@dataclass
class DsdCore:
    """An irreducible (or already-LUT-sized) residue for the main flow.

    The engine names cores when it accepts a plan; the name keys the
    signal the emitted tree references.
    """

    isf: ISF
    name: Optional[str] = None


@dataclass
class DsdMux:
    """``f = var ? hi : lo`` with both branches recursively planned."""

    var: int
    hi: object
    lo: object


@dataclass
class DsdChain:
    """Literals peeled off a child, outermost first.

    Each peel is ``(kind, var, positive)`` with ``kind`` in
    ``{"and", "or", "xor"}``: the outermost peel ``(k0, v0, s0)`` means
    ``f = lit(v0, s0) <k0> rest``.
    """

    peels: List[Tuple[str, int, bool]]
    child: object


# -- BDD-domain ops adapter ----------------------------------------------

class BddDsdOps:
    """Fallback split checks straight over BDD nodes.

    Check-for-check the same decision sequence as
    :class:`repro.kernel.dsd.MaskDsdOps`; used when the kernel is off or
    the support exceeds its cap.
    """

    domain = "bdd"

    def __init__(self, bdd: BDD) -> None:
        self.bdd = bdd

    def admits_const(self, h: ISF) -> Optional[int]:
        if h.lo == BDD.FALSE:
            return 0
        if h.hi == BDD.TRUE:
            return 1
        return None

    def support_vars(self, h: ISF) -> Tuple[int, ...]:
        return tuple(sorted(h.support(self.bdd)))

    def _halves(self, h: ISF, var: int):
        bdd = self.bdd
        lo0 = bdd.restrict(h.lo, var, 0)
        lo1 = bdd.restrict(h.lo, var, 1)
        if h.hi == h.lo:
            hi0, hi1 = lo0, lo1
        else:
            hi0 = bdd.restrict(h.hi, var, 0)
            hi1 = bdd.restrict(h.hi, var, 1)
        return lo0, hi0, lo1, hi1

    def try_peel(self, h: ISF, var: int):
        bdd = self.bdd
        lo0, hi0, lo1, hi1 = self._halves(h, var)
        if bdd.leq(lo0, hi1) and bdd.leq(lo1, hi0):
            return ("dead", True,
                    ISF(bdd.apply_or(lo0, lo1), bdd.apply_and(hi0, hi1)))
        if lo0 == BDD.FALSE:
            return ("and", True, ISF(lo1, hi1))
        if lo1 == BDD.FALSE:
            return ("and", False, ISF(lo0, hi0))
        if hi1 == BDD.TRUE:
            return ("or", True, ISF(lo0, hi0))
        if hi0 == BDD.TRUE:
            return ("or", False, ISF(lo1, hi1))
        g_lo = bdd.apply_or(lo0, bdd.apply_not(hi1))
        g_hi = bdd.apply_and(hi0, bdd.apply_not(lo1))
        if bdd.leq(g_lo, g_hi):
            return ("xor", True, ISF(g_lo, g_hi))
        return None

    def cofactors(self, h: ISF, var: int) -> Tuple[ISF, ISF]:
        lo0, hi0, lo1, hi1 = self._halves(h, var)
        return ISF(lo0, hi0), ISF(lo1, hi1)

    def lower(self, h: ISF) -> ISF:
        return h


# -- the probe ------------------------------------------------------------

def _bump(counters: Dict[str, int], key: str, n: int = 1) -> None:
    counters[key] = counters.get(key, 0) + n


def _probe(ops, h, n_lut: int, counters: Dict[str, int]):
    """Shatter one interval; a plan node, or ``None`` when nothing fired.

    Peels accumulate outermost-first; dead variables are dropped without
    a peel record; MUX splits recurse on both branches.  A residue whose
    support already fits one LUT stops the scan (the engine leaf-emits
    it), and a residue where no rule applies becomes a core for the ncc
    search — reported as ``None`` when the whole probe peeled nothing.
    """
    peels: List[Tuple[str, int, bool]] = []
    changed = False
    child = None
    while True:
        const = ops.admits_const(h)
        if const is not None:
            _bump(counters, "const_leaves")
            child = DsdConst(const)
            changed = True
            break
        sup = ops.support_vars(h)
        if len(sup) <= n_lut:
            child = DsdCore(ops.lower(h))
            break
        hit = None
        hit_var = None
        for var in sup:
            hit = ops.try_peel(h, var)
            if hit is not None:
                hit_var = var
                break
        if hit is not None:
            kind, positive, h = hit
            changed = True
            if kind == "dead":
                _bump(counters, "dead_vars")
            else:
                _bump(counters, f"{kind}_peels")
                peels.append((kind, hit_var, positive))
            continue
        best = None
        for var in sup:
            h0, h1 = ops.cofactors(h, var)
            s0 = len(ops.support_vars(h0))
            s1 = len(ops.support_vars(h1))
            if len(sup) - s0 >= MUX_MIN_SHRINK \
                    and len(sup) - s1 >= MUX_MIN_SHRINK:
                key = (s0 + s1, var)
                if best is None or key < best[0]:
                    best = (key, var, h0, h1)
        if best is not None:
            _, var, h0, h1 = best
            _bump(counters, "mux_splits")
            changed = True
            hi_plan = _probe(ops, h1, n_lut, counters) \
                or DsdCore(ops.lower(h1))
            lo_plan = _probe(ops, h0, n_lut, counters) \
                or DsdCore(ops.lower(h0))
            child = DsdMux(var, hi_plan, lo_plan)
            break
        # Irreducible residue.
        child = DsdCore(ops.lower(h))
        break
    if not changed:
        return None
    return DsdChain(peels, child) if peels else child


def shatter(bdd: BDD, isf: ISF, n_lut: int,
            counters: Dict[str, int]):
    """Probe one ISF, kernel-served when the support fits the kernel.

    Returns a plan tree or ``None``.  Kernel-served probes are timed
    under the ``dsd_probe`` op in the kernel stats; when the kernel
    declines (off or too wide) the probe runs the identical
    decision sequence over BDD restricts.
    """
    _bump(counters, "probes")
    domain = dsd_mask_domain(bdd, isf)
    if domain is not None:
        ops, handle = domain
        start = perf_counter()
        plan = _probe(ops, handle, n_lut, counters)
        KERNEL_STATS.record_hit("dsd_probe", perf_counter() - start)
        return plan
    return _probe(BddDsdOps(bdd), isf, n_lut, counters)


# -- chain LUT packing ----------------------------------------------------

def chain_table(chunk: List[Tuple[str, int, bool]]) -> List[int]:
    """Truth table of one packed chain LUT.

    Fanins are the chunk's peel literals (outermost first, MSB-first in
    the table) followed by the child signal as the least significant
    input.  The value folds the chunk from the child outward:
    ``acc = lit <op> acc`` for each peel, innermost first.
    """
    k = len(chunk) + 1
    table = []
    for idx in range(1 << k):
        acc = idx & 1  # child signal, least significant input
        for pos in range(len(chunk) - 1, -1, -1):
            kind, _, positive = chunk[pos]
            bit = (idx >> (k - 1 - pos)) & 1
            lit = bit if positive else 1 - bit
            if kind == "and":
                acc = lit & acc
            elif kind == "or":
                acc = lit | acc
            else:
                acc = lit ^ acc
        table.append(acc)
    return table


__all__ = [
    "BddDsdOps",
    "DsdChain",
    "DsdConst",
    "DsdCore",
    "DsdMux",
    "MUX_MIN_SHRINK",
    "chain_table",
    "dsd_enabled",
    "shatter",
]
