"""Compatible classes of bound-set vertices (Roth/Karp).

Given a bound set ``B = (x_{i1}, .., x_{ip})``, every *bound-set vertex*
``beta in {0,1}^p`` induces a cofactor ``f|beta`` over the free variables.
Two vertices are *compatible* iff their cofactors admit a common
extension:

* for completely specified functions this is cofactor equality — an
  equivalence relation, classes are groups of identical cofactors;
* for ISFs it is interval intersection — reflexive and symmetric but not
  transitive, so minimising the class count is a minimum clique cover
  problem on the compatibility graph.  We use a deterministic greedy
  first-fit-decreasing cover that grows a clique only while the *running
  interval intersection* stays non-empty (pairwise compatibility does not
  imply a common extension, the running intersection does).

The same machinery serves the single-output case (vectors of length 1)
and the joint multi-output case of paper step 2 (two vertices jointly
compatible iff compatible for *every* output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bdd.manager import BDD
from repro.bdd.ops import vertex_bits
from repro.boolfunc.spec import ISF
from repro.kernel import MISS_MISMATCH, STATS
from repro.kernel.compat import (
    kernel_classes_for,
    kernel_single_classes,
    merged_isfs,
)
from repro.kernel.convert import TableMismatchError
from repro.kernel.refine import PartitionCache
from repro.obs.profiler import profile_phase


@dataclass
class Classes:
    """A partition of the ``2**p`` bound-set vertices into compatible
    classes, together with the merged cofactor interval of every class.

    ``merged[c][k]`` is the intersection of the cofactor intervals of all
    vertices in class ``c`` for output ``k`` — the interval the
    composition function must realise for code ``c``.
    """

    bound: Tuple[int, ...]
    classes: List[List[int]]
    class_of: List[int]
    merged: List[List[ISF]]

    @property
    def ncc(self) -> int:
        """Number of compatible classes."""
        return len(self.classes)

    @property
    def min_r(self) -> int:
        """Minimum number of decomposition functions:
        ``ceil(log2(ncc))`` (0 for a single class)."""
        return min_r(self.ncc)

    @property
    def num_outputs(self) -> int:
        """Output arity of the merged cofactor vectors."""
        return len(self.merged[0]) if self.merged else 0


class LazyClasses(Classes):
    """A :class:`Classes` built by the kernel, whose merged intervals
    stay packed masks until someone reads ``merged``.

    ``masks[c][k]`` is class ``c``'s merged ``(lo, hi)`` interval for
    output ``k`` over ``frees[k]``, that output's free variables.  The
    candidate evaluation reads only the classes, ``ncc`` and ``min_r``,
    step 3 covers the masks directly (:meth:`single_classes`), and
    composition building shifts them into one table per output
    (:func:`repro.decomp.encoding.build_composition_for_output`).  Only
    the BDD narrowing :func:`assign_by_classes` (the step-ablation
    flags) reads ``merged``, which lowers the masks to BDD nodes once,
    on first access.
    """

    def __init__(self, bdd: BDD, bound: Tuple[int, ...],
                 classes: List[List[int]], class_of: List[int],
                 masks: List[List[Tuple[int, int]]],
                 frees: List[Tuple[int, ...]]) -> None:
        self.bound = bound
        self.classes = classes
        self.class_of = class_of
        self.masks = masks
        self.frees = frees
        self._bdd = bdd
        self._materialised: Optional[List[List[ISF]]] = None

    @property
    def merged(self) -> List[List[ISF]]:
        if self._materialised is None:
            self._materialised = merged_isfs(self._bdd, self.masks,
                                             self.frees)
        return self._materialised

    def single_classes(self) -> List["LazyClasses"]:
        """Each output's classes after narrowing it by these classes —
        ``classes_for(bdd, [isf], bound)`` of every output of
        :func:`assign_by_classes`, computed on the masks
        (:func:`repro.kernel.compat.kernel_single_classes`)."""
        return [LazyClasses(self._bdd, *hit) for hit in kernel_single_classes(
            self.bound, self.class_of, self.masks, self.frees)]


def min_r(num_classes: int) -> int:
    """``ceil(log2(k))`` with ``min_r(1) == 0``."""
    if num_classes < 1:
        raise ValueError("class count must be positive")
    return max(0, math.ceil(math.log2(num_classes)))


def vertex_cofactors(bdd: BDD, outputs: Sequence[ISF],
                     bound: Sequence[int]) -> List[List[ISF]]:
    """Cofactor interval vectors, indexed ``[vertex][output]``.

    Vertex indices follow :func:`repro.bdd.ops.vertex_bits` (MSB first).
    """
    with profile_phase("cofactors"):
        return _vertex_cofactors(bdd, outputs, bound)


def _vertex_cofactors(bdd: BDD, outputs: Sequence[ISF],
                      bound: Sequence[int]) -> List[List[ISF]]:
    per_output: List[List[ISF]] = []
    for isf in outputs:
        los = [isf.lo]
        for var in bound:
            los = [cof for node in los
                   for cof in (bdd.restrict(node, var, 0),
                               bdd.restrict(node, var, 1))]
        if isf.is_complete():
            his = los
        else:
            his = [isf.hi]
            for var in bound:
                his = [cof for node in his
                       for cof in (bdd.restrict(node, var, 0),
                                   bdd.restrict(node, var, 1))]
        per_output.append([ISF(lo, hi) for lo, hi in zip(los, his)])
    num_vertices = 1 << len(bound)
    return [[per_output[k][v] for k in range(len(outputs))]
            for v in range(num_vertices)]


def _vectors_compatible(bdd: BDD, a: Sequence[ISF],
                        b: Sequence[ISF]) -> bool:
    return all(x.compatible(bdd, y) for x, y in zip(a, b))


def _intersect_vectors(bdd: BDD, a: Sequence[ISF],
                       b: Sequence[ISF]) -> Optional[List[ISF]]:
    out = []
    for x, y in zip(a, b):
        z = x.intersect(bdd, y)
        if z is None:
            return None
        out.append(z)
    return out


def compute_classes(bdd: BDD, cofactors: Sequence[Sequence[ISF]],
                    bound: Sequence[int]) -> Classes:
    """Greedy minimum clique cover of the compatibility graph.

    Identical cofactor vectors are always grouped together (they are
    deduplicated first), which guarantees that re-running the computation
    after an :func:`assign_by_classes` narrowing never splits a class —
    the monotonicity the paper's step 2 / step 3 compatibility argument
    needs.
    """
    with profile_phase("clique_cover"):
        return _compute_classes(bdd, cofactors, bound)


def _compute_classes(bdd: BDD, cofactors: Sequence[Sequence[ISF]],
                     bound: Sequence[int]) -> Classes:
    num_vertices = len(cofactors)
    # Deduplicate identical vectors; ISFs are hashable (node-id pairs).
    rep_of: dict = {}
    unique_vectors: List[Tuple[ISF, ...]] = []
    members: List[List[int]] = []
    all_complete = True
    for v, vec in enumerate(cofactors):
        key = tuple(vec)
        if key in rep_of:
            members[rep_of[key]].append(v)
        else:
            rep_of[key] = len(unique_vectors)
            unique_vectors.append(key)
            members.append([v])
            if all_complete and any(i.lo != i.hi for i in vec):
                all_complete = False

    if all_complete:
        # Fast path: for completely specified functions compatibility is
        # equality, so the dedup groups ARE the classes.
        pairs = sorted(zip(members, unique_vectors),
                       key=lambda pair: min(pair[0]))
        classes = [sorted(m) for m, _ in pairs]
        merged = [list(vec) for _, vec in pairs]
        class_of = [0] * num_vertices
        for c, vertices in enumerate(classes):
            for v in vertices:
                class_of[v] = c
        return Classes(tuple(bound), classes, class_of, merged)

    # Seed the cover with the onset-equality groups: vertices whose lo
    # cofactors agree always form a valid clique (the running
    # intersection contains the common lo).  This guarantees the cover
    # never has MORE classes than assigning all don't cares to 0 — the
    # monotonicity that makes mulop-dc dominate mulopII step-wise.
    seed_of: dict = {}
    seed_members: List[List[int]] = []
    seed_intersection: List[List[ISF]] = []
    for i, vec in enumerate(unique_vectors):
        lo_key = tuple(isf.lo for isf in vec)
        s = seed_of.get(lo_key)
        if s is None:
            seed_of[lo_key] = len(seed_members)
            seed_members.append(list(members[i]))
            seed_intersection.append(list(vec))
        else:
            seed_members[s].extend(members[i])
            inter = _intersect_vectors(bdd, seed_intersection[s],
                                       list(vec))
            # Cannot be None: intervals sharing a lo always intersect.
            seed_intersection[s] = inter

    # Greedy merging of the seed cliques (first-fit decreasing by
    # incompatibility degree), each merge guarded by the running
    # intersection staying non-empty.
    n = len(seed_members)
    if n > 1:
        degree = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if not _vectors_compatible(bdd, seed_intersection[i],
                                           seed_intersection[j]):
                    degree[i] += 1
                    degree[j] += 1
        order = sorted(range(n), key=lambda i: (-degree[i], i))
    else:
        order = list(range(n))

    clique_members: List[List[int]] = []
    clique_intersection: List[List[ISF]] = []
    for i in order:
        vec = seed_intersection[i]
        placed = False
        for c in range(len(clique_members)):
            merged = _intersect_vectors(bdd, clique_intersection[c], vec)
            if merged is not None:
                clique_members[c].extend(seed_members[i])
                clique_intersection[c] = merged
                placed = True
                break
        if not placed:
            clique_members.append(list(seed_members[i]))
            clique_intersection.append(list(vec))

    # Deterministic class numbering: by smallest vertex index.
    pairs = sorted(zip(clique_members, clique_intersection),
                   key=lambda pair: min(pair[0]))
    classes = [sorted(m) for m, _ in pairs]
    merged = [inter for _, inter in pairs]
    class_of = [0] * num_vertices
    for c, vertices in enumerate(classes):
        for v in vertices:
            class_of[v] = c
    return Classes(tuple(bound), classes, class_of, merged)


def classes_for(bdd: BDD, outputs: Sequence[ISF],
                bound: Sequence[int]) -> Classes:
    """Convenience: cofactors + clique cover in one call.

    Served by the word-parallel kernel when the live support fits its
    cap (see :mod:`repro.kernel`); the result is bit-identical to the
    BDD path either way.
    """
    hit = kernel_classes_for(bdd, outputs, bound)
    if hit is not None:
        return LazyClasses(bdd, *hit)
    return compute_classes(bdd, vertex_cofactors(bdd, outputs, bound), bound)


def partition_classes(bdd: BDD, cache: PartitionCache,
                      bound: Tuple[int, ...]
                      ) -> Optional[Tuple[LazyClasses, List[LazyClasses]]]:
    """The joint and per-output classes of ``bound`` read off the
    cofactor states of ``cache``, built on a completely specified view, or
    ``None`` (then ask :func:`classes_for`).  Bit-identical to
    :func:`classes_for` of the view and of each of its outputs."""
    try:
        hit = cache.classes_for(bound)
    except TableMismatchError:
        STATS.record_miss("classes_for", MISS_MISMATCH)
        return None
    if hit is None:
        return None
    joint, per_output = hit
    return (LazyClasses(bdd, *joint),
            [LazyClasses(bdd, *single) for single in per_output])


def ncc(bdd: BDD, outputs: Sequence[ISF], bound: Sequence[int]) -> int:
    """Number of compatible classes of (the joint function of) ``outputs``
    w.r.t. ``bound``."""
    return classes_for(bdd, outputs, bound).ncc


def assign_by_classes(bdd: BDD, outputs: Sequence[ISF],
                      classes: Classes) -> List[ISF]:
    """Assign don't cares so every vertex takes its class's merged interval.

    This is a pure narrowing (the intersection refines each member), so it
    only ever *assigns* don't cares; care values are untouched.  Used by
    paper steps 2 (with joint classes) and 3 (with per-output classes).

    Completely specified outputs are returned as-is (the narrowing is the
    identity there) — an important fast path, since the recursion's top
    levels are complete.  The engine never builds the narrowed outputs
    of kernel-built classes: it needs only their classes
    (:meth:`LazyClasses.single_classes`).
    """
    if all(isf.is_complete() for isf in outputs):
        return list(outputs)
    p = len(classes.bound)
    new_outputs = []
    for k in range(len(outputs)):
        lo = BDD.FALSE
        hi = BDD.FALSE
        for c, vertices in enumerate(classes.classes):
            merged = classes.merged[c][k]
            for v in vertices:
                bits = vertex_bits(v, p)
                cube = bdd.cube(dict(zip(classes.bound, bits)))
                lo = bdd.apply_or(lo, bdd.apply_and(cube, merged.lo))
                hi = bdd.apply_or(hi, bdd.apply_and(cube, merged.hi))
        new_outputs.append(ISF.create(bdd, lo, hi))
    return new_outputs
