"""Word-parallel compatible-class computation (Roth/Karp hot path).

Mirrors :func:`repro.decomp.compat.compute_classes` *exactly* — same
dedup insertion order, same onset-keyed seeds, same first-fit-decreasing
greedy cover, same class numbering — but over packed truth tables
instead of BDD nodes:

* vertex cofactor extraction is one mask per output, laid out
  bound-first so each vertex's row is a contiguous slice, instead of
  ``2**p * outputs`` chains of ``bdd.restrict``;
* interval compatibility, running intersection and the cover's guards
  are bignum AND/OR over ``(lo, hi)`` mask pairs;
* step 3's per-output classes are covered straight from step 2's
  merged mask rows (:func:`kernel_single_classes`), so no narrowed
  output is ever built; composition building shifts the merged masks
  into one table per output and lowers it through the canonical
  :func:`repro.kernel.convert.mask_to_bdd`, so every node id is the
  one the BDD path would produce.

Each output gets its own table domain — its live support plus the
bound set — since compatibility is decided output by output (two
vertices are jointly compatible iff compatible for every output) and
the cover only ever compares an output's masks with masks of the same
output.  A wide multi-output bundle whose union support is far past
the cap is therefore served as long as every single output fits.

``kernel_classes_for`` and ``kernel_reduction_score`` return ``None``
when the kernel is disabled or the widest output's domain exceeds
:data:`repro.kernel.MAX_VARS`; callers then take the BDD path (and the
miss is counted).  ``kernel_single_classes`` chains exactly the classes
``kernel_classes_for`` built.  The bound-set candidates the engine
evaluates on a completely specified view read their classes off the
ranking's per-output cofactor states instead
(:meth:`repro.kernel.refine.PartitionCache.classes_for`).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.boolfunc.spec import ISF
from repro.faults import fault_point
from repro.kernel import MISS_MISMATCH, STATS, fits, kernel_enabled
from repro.kernel.convert import (
    TableMismatchError,
    _conversion_cache,
    bdd_to_mask,
    cache_put,
    mask_to_bdd,
)
from repro.obs.profiler import profile_phase

#: A vertex's cofactor vector: ``[(lo_mask, hi_mask)] * outputs``.
MaskVector = List[Tuple[int, int]]

#: Per-output table domains: ``domains[k]`` is the sorted variable
#: tuple output ``k``'s tables range over.
Domains = Tuple[Tuple[int, ...], ...]


def _isf_support(bdd, isf: ISF) -> set:
    live = bdd.support(isf.lo)
    if isf.hi != isf.lo:
        live |= bdd.support(isf.hi)
    return live


def _fit_variables(bdd, outputs: Sequence[ISF], bound: Sequence[int],
                   op: str) -> Optional[Domains]:
    """The per-output table domains of the call, or ``None`` (miss
    counted) when the kernel is off or the widest domain is too wide.

    ``domains[k]`` is output ``k``'s own table domain: the sorted live
    support of the output plus ``bound``, which :func:`_vertex_masks`
    slices.
    """
    if not kernel_enabled():
        return None
    domains = [tuple(sorted(_isf_support(bdd, isf) | set(bound)))
               for isf in outputs]
    if not fits(op, max(map(len, domains), default=len(bound))):
        return None
    fault_point("kernel.dispatch")  # chaos site: armed kernel hand-off
    return tuple(domains)


def _vertex_masks(bdd, outputs: Sequence[ISF], bound: Sequence[int],
                  domains: Domains) -> List[MaskVector]:
    """Per-vertex cofactor mask vectors, vertex order = ``vertex_bits``.

    Each output's table is laid out bound-first (``bound`` then its
    free variables), so row ``v`` — the cofactor of bound-set vertex
    ``v`` over that output's free variables — is the ``v``-th
    contiguous slice (MSB-first on both sides, with ``bound[0]`` the
    most significant vertex bit — the same convention as
    :func:`repro.decomp.compat.vertex_cofactors`).
    """
    p = len(bound)
    bound_t = tuple(bound)
    bound_set = set(bound_t)
    cache = _conversion_cache(bdd)

    def rows(node: int, table_vars: Tuple[int, ...]) -> list:
        # Keyed alongside the bdd_to_mask entries (4-tuples vs their
        # 2-tuples); re-scored bound sets reuse the sliced rows.
        key = ("rows", node, table_vars, bound_t)
        hit = cache.get(key)
        if hit is not None:
            return hit
        free = tuple(v for v in table_vars if v not in bound_set)
        mask = bdd_to_mask(bdd, node, bound_t + free)
        width = 1 << len(free)
        row = (1 << width) - 1
        sliced = [(mask >> (v * width)) & row for v in range(1 << p)]
        cache_put(cache, key, sliced)
        return sliced

    per_output: List[Tuple[List[int], List[int]]] = []
    for isf, table_vars in zip(outputs, domains):
        lo_rows = rows(isf.lo, table_vars)
        hi_rows = lo_rows if isf.hi == isf.lo else rows(isf.hi, table_vars)
        per_output.append((lo_rows, hi_rows))
    return [[(lo[v], hi[v]) for lo, hi in per_output]
            for v in range(1 << p)]


def _compatible(a: MaskVector, b: MaskVector) -> bool:
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if alo & ~bhi or blo & ~ahi:
            return False
    return True


def _intersect(a: MaskVector, b: MaskVector) -> Optional[MaskVector]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo = alo | blo
        hi = ahi & bhi
        if lo & ~hi:
            return None
        out.append((lo, hi))
    return out


def _dedup(vectors: List[MaskVector]
           ) -> Tuple[List[MaskVector], List[List[int]], bool]:
    """First-occurrence dedup of the vertex cofactor vectors.

    Returns ``(unique_vectors, members, all_complete)`` — the partition
    the cover operates on, and the one :mod:`repro.kernel.refine`
    assembles from per-output cofactor states.  Group order is by first
    occurrence, which equals ascending minimum member; members are
    appended in ascending vertex order.
    """
    rep_of: dict = {}
    unique_vectors: List[MaskVector] = []
    members: List[List[int]] = []
    all_complete = True
    for v, vec in enumerate(vectors):
        key = tuple(vec)
        if key in rep_of:
            members[rep_of[key]].append(v)
        else:
            rep_of[key] = len(unique_vectors)
            unique_vectors.append(vec)
            members.append([v])
            if all_complete and any(lo != hi for lo, hi in vec):
                all_complete = False
    return unique_vectors, members, all_complete


def _cliques(unique_vectors: List[MaskVector]
             ) -> Tuple[List[List[int]], List[MaskVector]]:
    """The greedy clique cover of an incompletely specified partition:
    onset-keyed seeds, then first fit in decreasing conflict degree.
    Returns ``(cliques, intersections)``; ``cliques[c]`` lists the
    indices of the ``unique_vectors`` clique ``c`` covers."""
    seed_of: dict = {}
    seed_vectors: List[List[int]] = []
    seed_intersection: List[MaskVector] = []
    for i, vec in enumerate(unique_vectors):
        lo_key = tuple(lo for lo, _ in vec)
        s = seed_of.get(lo_key)
        if s is None:
            seed_of[lo_key] = len(seed_vectors)
            seed_vectors.append([i])
            seed_intersection.append(list(vec))
        else:
            seed_vectors[s].append(i)
            # Cannot be None: intervals sharing a lo always intersect.
            seed_intersection[s] = _intersect(seed_intersection[s], vec)

    n = len(seed_vectors)
    if n > 1:
        degree = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if not _compatible(seed_intersection[i],
                                   seed_intersection[j]):
                    degree[i] += 1
                    degree[j] += 1
        order = sorted(range(n), key=lambda i: (-degree[i], i))
    else:
        order = list(range(n))

    cliques: List[List[int]] = []
    clique_intersection: List[MaskVector] = []
    for i in order:
        vec = seed_intersection[i]
        placed = False
        for c in range(len(cliques)):
            merged = _intersect(clique_intersection[c], vec)
            if merged is not None:
                cliques[c].extend(seed_vectors[i])
                clique_intersection[c] = merged
                placed = True
                break
        if not placed:
            cliques.append(list(seed_vectors[i]))
            clique_intersection.append(list(vec))
    return cliques, clique_intersection


def _cover_count(unique_vectors: List[MaskVector], all_complete: bool
                 ) -> int:
    """``len(classes)`` of :func:`_cover` over any vertices whose dedup
    gives these vectors: :func:`_cliques` never reads the members."""
    if all_complete:
        return len(unique_vectors)
    return len(_cliques(unique_vectors)[0])


def _cover(vectors: List[MaskVector]
           ) -> Tuple[List[List[int]], List[int], List[MaskVector]]:
    """The clique cover of :func:`repro.decomp.compat._compute_classes`,
    step for step, over mask vectors.  Returns
    ``(classes, class_of, merged_mask_vectors)``."""
    unique_vectors, members, all_complete = _dedup(vectors)
    if all_complete:
        pairs = sorted(zip(members, unique_vectors),
                       key=lambda pair: min(pair[0]))
        classes = [sorted(m) for m, _ in pairs]
        merged = [list(vec) for _, vec in pairs]
    else:
        cliques, intersections = _cliques(unique_vectors)
        pairs = sorted(
            zip([[m for i in clique for m in members[i]]
                 for clique in cliques], intersections),
            key=lambda pair: min(pair[0]))
        classes = [sorted(m) for m, _ in pairs]
        merged = [inter for _, inter in pairs]
    class_of = [0] * len(vectors)
    for c, vertices in enumerate(classes):
        for v in vertices:
            class_of[v] = c
    return classes, class_of, merged


def kernel_classes_for(bdd, outputs: Sequence[ISF], bound: Sequence[int]
                       ) -> Optional[Tuple[Tuple[int, ...], List[List[int]],
                                           List[int], List[MaskVector],
                                           List[Tuple[int, ...]]]]:
    """Cofactors + clique cover; ``(bound, classes, class_of, masks,
    frees)`` or ``None`` on fallback.

    ``masks[c][k]`` is class ``c``'s merged ``(lo, hi)`` interval for
    output ``k`` as masks over ``frees[k]``, that output's free
    variables.  They stay masks: the bulk of the callers — bound-set
    scoring — only read the class *counts*, step 3 covers the masks
    (:func:`kernel_single_classes`), composition building lowers one
    table assembled from them, and only the BDD narrowing lowers them
    one by one (:func:`merged_isfs`, see
    :class:`repro.decomp.compat.LazyClasses`).
    """
    domains = _fit_variables(bdd, outputs, bound, "classes_for")
    if domains is None:
        return None
    start = perf_counter()
    try:
        with profile_phase("cofactors"):
            vectors = _vertex_masks(bdd, outputs, bound, domains)
        with profile_phase("clique_cover"):
            classes, class_of, merged_masks = _cover(vectors)
    except TableMismatchError:
        # Stale/shrunk ordering from the caller: degrade to the BDD
        # route instead of crashing the run.
        STATS.record_miss("classes_for", MISS_MISMATCH)
        return None
    STATS.record_hit("classes_for", perf_counter() - start)
    bound_set = set(bound)
    frees = [tuple(v for v in domain if v not in bound_set)
             for domain in domains]
    return tuple(bound), classes, class_of, merged_masks, frees


def merged_isfs(bdd, masks: Sequence[MaskVector],
                frees: Sequence[Tuple[int, ...]]) -> List[List[ISF]]:
    """The merged class intervals of :func:`kernel_classes_for` as
    canonical ISFs: each output's masks lower over its own free
    variables, and :func:`mask_to_bdd` is canonical, so the node ids do
    not depend on which covering variable tuple the table used."""
    begin = perf_counter()
    with profile_phase("clique_cover"):
        merged: List[List[ISF]] = []
        for vec in masks:
            row = []
            for (lo_mask, hi_mask), free in zip(vec, frees):
                lo = mask_to_bdd(bdd, lo_mask, free)
                hi = lo if hi_mask == lo_mask else \
                    mask_to_bdd(bdd, hi_mask, free)
                row.append(ISF(lo, hi))
            merged.append(row)
    STATS.record_hit("merged_convert", perf_counter() - begin)
    return merged


def kernel_reduction_score(bdd, outputs: Sequence[ISF],
                           bound: Sequence[int]
                           ) -> Optional[Tuple[int, int, int]]:
    """The ranking score of :func:`repro.decomp.bound_set.reduction_score`
    without any BDD materialisation (class *counts* only)."""
    domains = _fit_variables(bdd, outputs, bound, "reduction_score")
    if domains is None:
        return None
    start = perf_counter()
    try:
        with profile_phase("cofactors"):
            vectors = _vertex_masks(bdd, outputs, bound, domains)
    except TableMismatchError:
        STATS.record_miss("reduction_score", MISS_MISMATCH)
        return None
    with profile_phase("clique_cover"):
        bound_set = set(bound)
        reduction = 0
        for k, isf in enumerate(outputs):
            inter = len(isf.support(bdd) & bound_set)
            if inter == 0:
                continue
            column = [[vec[k]] for vec in vectors]
            classes, _, _ = _cover(column)
            reduction += max(0, inter - _min_r(len(classes)))
        joint_classes, _, _ = _cover(vectors)
        joint_ncc = len(joint_classes)
        score = (-reduction, _min_r(joint_ncc), joint_ncc)
    STATS.record_hit("reduction_score", perf_counter() - start)
    return score


def _min_r(num_classes: int) -> int:
    # ceil(log2) without importing repro.decomp.compat (cycle).
    return max(0, (num_classes - 1).bit_length())


def kernel_single_classes(bound: Tuple[int, ...], class_of: Sequence[int],
                          masks: Sequence[MaskVector],
                          frees: Sequence[Tuple[int, ...]]
                          ) -> List[Tuple[Tuple[int, ...], List[List[int]],
                                          List[int], List[MaskVector],
                                          List[Tuple[int, ...]]]]:
    """Step 3's per-output classes after step 2's narrowing, from the
    joint classes of :func:`kernel_classes_for` (``class_of``,
    ``masks``, ``frees``), in its form, one entry per output.

    The narrowing gives every vertex its joint class's merged interval,
    so row ``v`` of output ``k``'s narrowed table is
    ``masks[class_of[v]][k]``.  Covering that column is
    ``kernel_classes_for`` of the narrowed output: the narrowed support
    lies inside ``frees[k]`` plus the bound, a variable outside it only
    repeats every row, which changes no equality, compatibility or
    intersection, and :func:`merged_isfs` lowers canonically.  Nothing
    is lowered here.  Each output counts as a ``classes_for`` hit.
    """
    per_output = []
    for k, free in enumerate(frees):
        start = perf_counter()
        classes, single_of, merged = _cover([[masks[c][k]]
                                             for c in class_of])
        per_output.append((bound, classes, single_of, merged, [free]))
        STATS.record_hit("classes_for", perf_counter() - start)
    return per_output
