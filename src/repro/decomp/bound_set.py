"""Bound-set selection.

The paper seeds the search with symmetric sifting — symmetric variables
end up adjacent — and then examines candidate bound sets obtained by
exchanging groups of symmetric variables.  We reproduce that strategy
order-free: variables are laid out group-contiguously (largest common
symmetry group first), candidates are sliding windows of size ``p`` over
that layout plus group-aligned combinations, and each candidate is scored
by the quantities the paper minimises:

1. the total number of decomposition functions ``sum_i r_i`` (after
   sharing it can only shrink, so this is the primary cost);
2. the joint lower bound ``ceil(log2(ncc_joint))`` (sharing potential);
3. the joint ``ncc`` itself as a tie breaker.

Only *support-reducing* candidates (``r_total < p``) make the recursion
shrink; the driver falls back to a Shannon step when none exists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.compat import classes_for, min_r
from repro.kernel import MISS_MISMATCH
from repro.kernel import STATS as KERNEL_STATS
from repro.kernel.compat import kernel_reduction_score
from repro.kernel.convert import TableMismatchError
from repro.kernel.refine import CofactorStore, PartitionCache


#: ``rank_bound_sets``'s default ``cache``: build one if a score is
#: missing.
_BUILD_CACHE = object()


def candidate_bound_sets(variables: Sequence[int], p: int,
                         groups: Optional[Sequence[Sequence[int]]] = None,
                         max_candidates: int = 24) -> List[Tuple[int, ...]]:
    """Candidate bound sets of size ``p`` (deduplicated, ordered).

    With symmetry groups given, the layout is group-contiguous and whole
    groups are preferred window anchors; without groups, plain sliding
    windows over the variable list are used.
    """
    variables = list(variables)
    if p >= len(variables):
        raise ValueError("bound set must be a strict subset of the support")
    layout: List[int] = []
    if groups:
        # Single seen-set pass: a variable in two groups lands once (at
        # its first, largest group) and the dedup is linear, not the
        # old per-element set(layout)/set(variables) rebuild.
        placed: Set[int] = set(variables)
        order = sorted((g for g in groups if g), key=len, reverse=True)
        for g in order:
            for v in g:
                if v in placed:
                    placed.discard(v)
                    layout.append(v)
        for v in variables:
            if v in placed:
                placed.discard(v)
                layout.append(v)
    else:
        layout = variables

    seen = set()
    candidates: List[Tuple[int, ...]] = []

    def add(cand: Sequence[int]) -> None:
        key = tuple(sorted(cand))
        if len(key) == p and key not in seen:
            seen.add(key)
            candidates.append(key)

    # Sliding windows over the layout.
    for start in range(len(layout) - p + 1):
        add(layout[start:start + p])
        if len(candidates) >= max_candidates:
            return candidates
    # Group-aligned combinations: fill a window with whole groups first.
    if groups:
        layout_set = set(layout)
        order = sorted((list(g) for g in groups if g), key=len, reverse=True)
        for i, g in enumerate(order):
            cand: List[int] = []
            for h in order[i:] + order[:i]:
                for v in h:
                    if len(cand) < p and v in layout_set:
                        cand.append(v)
            if len(cand) == p:
                add(cand)
            if len(candidates) >= max_candidates:
                return candidates
    # A few stride-2 windows for diversity.
    for start in range(0, len(layout) - 2 * p + 2, 2):
        add(layout[start:start + 2 * p:2])
        if len(candidates) >= max_candidates:
            break
    return candidates


def score_bound_set(bdd: BDD, outputs: Sequence[ISF],
                    bound: Sequence[int]) -> Tuple[int, int, int]:
    """Score tuple (lower is better): ``(sum_i r_i, joint min_r, joint ncc)``."""
    joint = classes_for(bdd, outputs, bound)
    total_r = 0
    for isf in outputs:
        total_r += classes_for(bdd, [isf], bound).min_r
    return (total_r, joint.min_r, joint.ncc)


def reduction_score(bdd: BDD, outputs: Sequence[ISF],
                    bound: Sequence[int]) -> Tuple[int, int, int]:
    """Ranking score (lower is better).

    The first component is the *negated total support reduction*
    ``-sum_i max(0, |S_i intersect B| - r_i)`` — the number of inputs the
    step removes across all outputs under the paper's per-output
    ``r_i = ceil(log2 ncc_i)`` rule; ties break on the joint lower bound
    (more sharing potential) and the joint ``ncc``.

    This is the hottest scoring path of the ranking; when the live
    support fits, the kernel computes the class *counts* without
    materialising a single BDD node.
    """
    hit = kernel_reduction_score(bdd, outputs, bound)
    if hit is not None:
        return hit
    from repro.decomp.compat import compute_classes, vertex_cofactors
    vectors = vertex_cofactors(bdd, outputs, bound)
    bound_set = set(bound)
    reduction = 0
    for k, isf in enumerate(outputs):
        inter = len(isf.support(bdd) & bound_set)
        if inter == 0:
            continue
        column = [[vec[k]] for vec in vectors]
        r_i = compute_classes(bdd, column, bound).min_r
        reduction += max(0, inter - r_i)
    joint = compute_classes(bdd, vectors, bound)
    return (-reduction, joint.min_r, joint.ncc)


def greedy_bound_set(bdd: BDD, outputs: Sequence[ISF],
                     variables: Sequence[int], p: int,
                     pool_cap: int = 26,
                     store: Optional[CofactorStore] = None
                     ) -> Optional[Tuple[int, ...]]:
    """Grow a bound set greedily by joint ``ncc``.

    Starting from the empty set, each round adds the variable that keeps
    the joint class count smallest.  This discovers *algebraic* structure
    plain windows miss — e.g. for parity-dominated circuits (C499-style)
    it collects variables whose contribution patterns are linearly
    dependent, where ``ncc`` stays at ``2^rank`` instead of ``2^p``.

    When the kernel serves the support, each round scores every
    ``B ∪ {v}`` from the outputs' cofactor states in ``store`` (a fresh
    one when left out; see :mod:`repro.kernel.refine`) with
    :meth:`~repro.kernel.refine.PartitionCache.split_counts`: on
    completely specified outputs it assembles the groups of ``B`` once
    and counts the distinct child keys of every pool variable's split,
    otherwise it runs the clique cover's class count on each assembled
    child — identical ``ncc`` to a full ``classes_for``, so the grown
    set is bit-identical either way.
    """
    variables = list(variables)
    if p >= len(variables):
        return None
    if len(variables) > pool_cap:
        # Deterministic thinning: keep an evenly spaced subsample.
        step = len(variables) / pool_cap
        variables = [variables[int(i * step)] for i in range(pool_cap)]
    # Wide bundles: grow against a sample of the outputs (structure like
    # linear dependence shows up in any few outputs; the full bundle is
    # only consulted by the caller's scoring).
    if len(outputs) > 8:
        outputs = list(outputs)[:8]
    cache = PartitionCache.for_call(bdd, outputs, "classes_for", store)
    current: List[int] = []
    for _ in range(p):
        pool = [var for var in variables if var not in current]
        counts = None
        if cache is not None:
            try:
                counts = cache.split_counts(tuple(current), pool)
            except TableMismatchError:
                # Stale/shrunk ordering behind the cache: degrade to
                # the BDD route for the rest of the growth.
                KERNEL_STATS.record_miss("classes_for", MISS_MISMATCH)
                cache = None
        best_var = None
        best_key = None
        for i, var in enumerate(pool):
            if counts is None:
                KERNEL_STATS.record_scratch()
                ncc = classes_for(bdd, outputs, current + [var]).ncc
            else:
                ncc = counts[i]
            key = (ncc, var)
            if best_key is None or key < best_key:
                best_key = key
                best_var = var
        if best_var is None:
            return None
        current.append(best_var)
    return tuple(sorted(current))


def rank_bound_sets(bdd: BDD, outputs: Sequence[ISF],
                    variables: Sequence[int], p: int,
                    groups: Optional[Sequence[Sequence[int]]] = None,
                    max_candidates: int = 24,
                    score_memo: Optional[Dict] = None,
                    memo_key: Optional[Tuple] = None,
                    memo_stats: Optional[Any] = None,
                    cache: Any = _BUILD_CACHE,
                    store: Optional[CofactorStore] = None
                    ) -> List[Tuple[Tuple[int, ...], Tuple[int, int, int]]]:
    """Candidates with positive total support reduction, best first.

    Window/group candidates are augmented with one greedily grown
    candidate (see :func:`greedy_bound_set`).  The driver still verifies
    the actual per-output reductions after the don't-care steps and moves
    down the list when a candidate falls short.

    When the kernel serves the support, every candidate is scored
    through one :class:`repro.kernel.refine.PartitionCache`, which
    assembles its joint groups from each output's cofactor states over
    its part of the candidate; the states live in ``store``, which the
    engine keeps for a whole run, so overlapping candidates and later
    rankings reuse each other's splits (left out, ``cache``'s store or
    a fresh one serves this call, greedy pick included).  ``cache``,
    when given, is that cache (``PartitionCache.for_call`` of
    ``outputs``, or ``None`` when the kernel cannot serve); left out,
    one is built when a score is missing.  The engine passes its own
    so the candidates it evaluates read their classes off the same
    states.

    ``score_memo`` lets the engine reuse work across repeated rankings
    of the same outputs within one run: it holds each candidate's score
    under ``(memo_key, candidate)`` and the greedy pick under
    ``(memo_key, "greedy", tuple(variables))``, so a fully memoised
    ranking does no table work.  ``memo_stats``, when given, counts the
    memo's hits and misses on its ``score_memo_hits``,
    ``score_memo_misses``, ``greedy_memo_hits`` and
    ``greedy_memo_misses`` attributes.
    """
    candidates = candidate_bound_sets(variables, p, groups, max_candidates)
    if store is None:
        store = cache.store if isinstance(cache, PartitionCache) \
            else CofactorStore()
    memo = {} if score_memo is None else score_memo
    greedy_key = (memo_key, "greedy", tuple(variables))
    greedy_hit = greedy_key in memo
    if greedy_hit:
        greedy = memo[greedy_key]
    else:
        greedy = memo[greedy_key] = greedy_bound_set(
            bdd, outputs, variables, p, store=store)
    if greedy is not None and greedy not in candidates:
        candidates.insert(0, greedy)
    keys = [(memo_key, cand) for cand in candidates]
    misses = sum(key not in memo for key in keys)
    if cache is _BUILD_CACHE:
        cache = None
        if misses:
            cache = PartitionCache.for_call(bdd, outputs,
                                            "reduction_score", store)
    ranked = []
    for cand, key in zip(candidates, keys):
        score = memo.get(key)
        if score is None:
            if cache is not None:
                try:
                    score = cache.score_for(cand)
                except TableMismatchError:
                    KERNEL_STATS.record_miss("reduction_score",
                                             MISS_MISMATCH)
                    cache = None
            if score is None:
                KERNEL_STATS.record_scratch()
                score = reduction_score(bdd, outputs, cand)
            memo[key] = score
        if score[0] >= 0:
            continue  # removes nothing
        ranked.append((cand, score))
    if memo_stats is not None:
        memo_stats.greedy_memo_hits += greedy_hit
        memo_stats.greedy_memo_misses += not greedy_hit
        memo_stats.score_memo_hits += len(keys) - misses
        memo_stats.score_memo_misses += misses
    ranked.sort(key=lambda item: item[1])
    return ranked


def select_bound_set(bdd: BDD, outputs: Sequence[ISF],
                     variables: Sequence[int], p: int,
                     groups: Optional[Sequence[Sequence[int]]] = None,
                     max_candidates: int = 24
                     ) -> Tuple[Optional[Tuple[int, ...]],
                                Optional[Tuple[int, int, int]]]:
    """Pick the best *certainly* support-reducing bound set of size ``p``.

    Returns ``(bound, score)``; ``bound`` is None when no candidate has
    ``sum_i r_i < p`` — callers wanting to gamble on sharing should use
    :func:`rank_bound_sets` instead.
    """
    best: Optional[Tuple[int, ...]] = None
    best_score: Optional[Tuple[int, int, int]] = None
    for cand in candidate_bound_sets(variables, p, groups, max_candidates):
        score = score_bound_set(bdd, outputs, cand)
        if score[0] >= p:
            continue  # not support-reducing
        if best_score is None or score < best_score:
            best, best_score = cand, score
    return best, best_score
