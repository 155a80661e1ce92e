"""Class encodings, decomposition functions and composition functions.

A *decomposition function* ``alpha: {0,1}^p -> {0,1}`` is represented by
its value vector over the ``2**p`` bound-set vertices
(:class:`AlphaFunction`).  An ``alpha`` is *strict* for an output iff it
is constant on each of that output's compatible classes — the restriction
the paper uses both to speed up common-function search and to preserve
symmetries (a strict function of a function symmetric in ``(x_i, x_j)``
is itself symmetric in that pair).

An :class:`OutputEncoding` selects, for one output, ``r_i`` alphas whose
joint value vector is injective on the output's classes; the composition
function ``g_i`` is then an ISF over the alpha variables and the free
variables, with *unused codes as don't cares* — this is exactly where the
incompletely specified functions of the recursion come from (Section 5).
For kernel-built classes it is assembled from the classes' merged masks
and lowered once (:func:`build_composition_for_output`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.compat import Classes, LazyClasses
from repro.kernel import STATS
from repro.kernel.convert import mask_to_bdd


def sub_isf_key(bdd: BDD, isfs: Sequence[ISF], support: Sequence[int],
                config_tag: str) -> str:
    """Canonical content key of a sub-ISF bundle (the submemo key).

    Covers the shape of every interval's ``[lo, hi]`` BDDs with nodes
    renumbered children-first and variables identified by their *rank*
    in the sorted live support — never by id or name — so the same
    subfunction reached through different outputs, recursion paths,
    jobs or processes (where the surrounding manager allocated different
    variable ids) hashes identically.  Output order matters (the memo
    payload maps results back positionally); ``config_tag`` folds in
    every engine knob that can change the decomposition of the bundle.

    The labelled graph fully determines the bundle's semantics over the
    ranked variables *and* its node counts (the only structural property
    the engine's heuristics consult), which is why a key hit may splice
    a memoised sub-network bit-identically (see
    :mod:`repro.decomp.submemo`).
    """
    rank = {var: pos for pos, var in enumerate(support)}
    index: Dict[int, int] = {BDD.FALSE: 0, BDD.TRUE: 1}
    nodes: List[List[int]] = []
    roots: List[int] = []
    for isf in isfs:
        for root in (isf.lo, isf.hi):
            stack = [(root, False)]
            expanded = set()
            while stack:
                node, ready = stack.pop()
                if node in index:
                    continue
                if ready:
                    index[node] = len(nodes) + 2
                    nodes.append([rank[bdd.var_of(node)],
                                  index[bdd.low(node)],
                                  index[bdd.high(node)]])
                elif node not in expanded:
                    expanded.add(node)
                    stack.append((node, True))
                    stack.append((bdd.high(node), False))
                    stack.append((bdd.low(node), False))
            roots.append(index[root])
    blob = json.dumps({"n": len(support), "nodes": nodes,
                       "roots": roots, "cfg": config_tag},
                      sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class AlphaFunction:
    """A decomposition function as its value vector over bound vertices.

    Normalised so that ``values[0] == 0`` (complementing an alpha merely
    relabels codes, so one polarity suffices; normalisation maximises
    sharing and turns complement-of-projection into projection).
    """

    values: Tuple[int, ...]

    def __post_init__(self):
        if self.values and self.values[0] != 0:
            raise ValueError("alpha must be normalised (values[0] == 0)")
        n = len(self.values)
        if n & (n - 1) or n == 0:
            raise ValueError("value vector length must be a power of two")

    @staticmethod
    def normalised(values: Sequence[int]) -> "AlphaFunction":
        """Build with polarity normalisation applied."""
        values = tuple(int(bool(v)) for v in values)
        if values and values[0] == 1:
            values = tuple(1 - v for v in values)
        return AlphaFunction(values)

    @staticmethod
    def from_mask(mask: int, num_vertices: int) -> "AlphaFunction":
        """The alpha whose value on vertex ``v`` is bit ``v`` of
        ``mask`` (already normalised: bit 0 clear)."""
        return AlphaFunction(tuple(mask >> v & 1
                                   for v in range(num_vertices)))

    def is_strict_for(self, classes: Classes) -> bool:
        """Constant on each compatible class of the output?"""
        for members in classes.classes:
            first = self.values[members[0]]
            if any(self.values[v] != first for v in members[1:]):
                return False
        return True

    def projection_var(self, bound: Sequence[int]) -> Optional[int]:
        """If the alpha is the projection onto one bound variable, return
        that variable id (such alphas need no LUT — they are wires)."""
        p = len(bound)
        for i in range(p):
            if all(((v >> (p - 1 - i)) & 1) == self.values[v]
                   for v in range(len(self.values))):
                return bound[i]
        return None

    def to_bdd(self, bdd: BDD, bound: Sequence[int]) -> int:
        """BDD over the bound variables."""
        return bdd.from_truth_table(list(self.values), bound)


@dataclass
class OutputEncoding:
    """The encoding of one output's classes by a subset of the alphas.

    ``alpha_indices`` point into the shared alpha list; ``codes[c]`` is
    the code of class ``c`` (the alphas' values on that class).
    """

    classes: Classes
    alpha_indices: List[int]
    codes: List[Tuple[int, ...]]

    @property
    def r(self) -> int:
        """Number of decomposition functions this output uses."""
        return len(self.alpha_indices)


def encode_output(classes: Classes, alphas: Sequence[AlphaFunction],
                  alpha_indices: Sequence[int]) -> OutputEncoding:
    """Derive (and validate) the class codes for one output."""
    codes = []
    for members in classes.classes:
        rep = members[0]
        codes.append(tuple(alphas[i].values[rep] for i in alpha_indices))
    for i in alpha_indices:
        if not alphas[i].is_strict_for(classes):
            raise ValueError(f"alpha {i} is not strict for the output")
    if len(set(codes)) != len(codes):
        raise ValueError("encoding is not injective on the classes")
    return OutputEncoding(classes, list(alpha_indices), codes)


def build_composition_for_output(bdd: BDD, encoding: OutputEncoding,
                                 output_index: int,
                                 alpha_vars: Dict[int, int]) -> ISF:
    """The composition function ``g_i`` of output ``output_index`` of
    the encoded classes, as an ISF.

    ``alpha_vars`` maps alpha indices to their BDD variables.  For each
    class code the interval is the class's merged cofactor interval; all
    unused codes are don't cares (``lo=0, hi=1``) — the don't cares the
    recursion will exploit.

    Kernel-built classes (:class:`~repro.decomp.compat.LazyClasses`)
    are composed in mask space (:func:`_composition_from_masks`); plain
    :class:`~repro.decomp.compat.Classes` take the BDD reference, one
    ``cube AND merged`` OR-ed in per code.
    """
    variables = [alpha_vars[i] for i in encoding.alpha_indices]
    if isinstance(encoding.classes, LazyClasses):
        return _composition_from_masks(bdd, encoding, output_index,
                                       variables)
    lo = BDD.FALSE
    hi = BDD.FALSE
    used = BDD.FALSE
    for c, code in enumerate(encoding.codes):
        cube = bdd.cube(dict(zip(variables, code)))
        merged = encoding.classes.merged[c][output_index]
        lo = bdd.apply_or(lo, bdd.apply_and(cube, merged.lo))
        hi = bdd.apply_or(hi, bdd.apply_and(cube, merged.hi))
        used = bdd.apply_or(used, cube)
    hi = bdd.apply_or(hi, bdd.apply_not(used))
    return ISF.create(bdd, lo, hi)


def _composition_from_masks(bdd: BDD, encoding: OutputEncoding,
                            output_index: int,
                            variables: Sequence[int]) -> ISF:
    """:func:`build_composition_for_output` on the classes' merged
    masks, lowered once.

    The table ranges over the alpha variables (in code order, the
    first alpha the most significant) followed by the output's free
    variables, so the code's row is the contiguous slice the class's
    merged ``(lo, hi)`` mask shifts into; the ``hi`` rows of unused
    codes are all ones.  ``r <= |S ∩ B|`` (``r < |S ∩ B|`` for every
    output the engine composes), so the table is no wider than the
    output's own kernel domain.  Each lowering counts as a
    ``composition`` kernel hit.
    """
    start = perf_counter()
    classes = encoding.classes
    free = classes.frees[output_index]
    width = 1 << len(free)
    lo = hi = 0
    used = set()
    for code, vec in zip(encoding.codes, classes.masks):
        at = 0
        for bit in code:
            at = at << 1 | bit
        used.add(at)
        row_lo, row_hi = vec[output_index]
        lo |= row_lo << (at * width)
        hi |= row_hi << (at * width)
    row = (1 << width) - 1
    for at in range(1 << len(variables)):
        if at not in used:
            hi |= row << (at * width)
    if lo & ~hi:
        raise ValueError("ISF requires lo <= hi")
    table_vars = tuple(variables) + tuple(free)
    lo_node = mask_to_bdd(bdd, lo, table_vars)
    hi_node = lo_node if hi == lo else mask_to_bdd(bdd, hi, table_vars)
    STATS.record_hit("composition", perf_counter() - start)
    return ISF(lo_node, hi_node)
