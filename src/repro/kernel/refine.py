"""Incremental bound-set partition refinement.

The bound-set search evaluates *families* of closely related candidate
sets: :func:`repro.decomp.bound_set.greedy_bound_set` scores
``B ∪ {v}`` for every pool variable ``v`` at every growth round, and
:func:`repro.decomp.bound_set.rank_bound_sets` scores sliding windows
that share long sorted prefixes.  Recomputing ``classes_for`` from
scratch re-extracts and re-deduplicates the full ``2**n`` truth table
per candidate; this module instead *refines* a cached vertex partition:

appending ``v`` to a bound ``B`` makes it the least significant vertex
bit (``bound[0]`` is the MSB), so every old vertex ``β`` splits into
``2β`` (``v = 0``) and ``2β + 1`` (``v = 1``), and the cofactor table
of each new vertex is one *half* of its parent's — obtained by slicing
the packed mask at ``v``'s bit stride, never touching the full table.
Equal-cofactor groups of ``B ∪ {v}`` are re-deduplicated among the (at
most ``2·u``) split group vectors, ``u`` the parent's group count.

Each output keeps its own table domain (its live support, see
:func:`repro.kernel.compat._fit_variables`): an output that does not
depend on ``v`` has equal cofactors at ``v = 0`` and ``v = 1``, so its
masks pass through the split unchanged — exactly the masks a
from-scratch extraction over that output's ``support ∪ B ∪ {v}``
produces.

Bit-identicality: ordering the refined groups by minimum member index
reproduces the first-occurrence order of a from-scratch dedup exactly
(a group's first occurrence *is* its minimum member), members map
monotonically (``β -> 2β + b``), and completeness is preserved by
splitting — so the refined partition is *equal* to the from-scratch
partition and the shared clique cover
(:func:`repro.kernel.compat._cover_from_partition`) then runs step for
step identically.  Scores derived here are therefore byte-identical to
:func:`repro.decomp.bound_set.reduction_score`; the property suite in
``tests/kernel/test_refine.py`` enforces it.

Every refinement is counted under the ``kernel_refine`` op (and
fallbacks to full recomputation under ``classes_from_scratch``), so
``--profile`` shows the search performing O(1) refinements per
candidate variable instead of full ``classes_for`` calls.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolfunc.spec import ISF
from repro.kernel import STATS
from repro.kernel.bitset import split_int
from repro.kernel.compat import (
    Domains,
    MaskVector,
    _cover_from_partition,
    _dedup,
    _fit_variables,
    _min_r,
    _vertex_masks,
)
from repro.obs.profiler import profile_phase

#: Retained-mask byte budget per cache; past it the chain cache clears
#: (correctness is unaffected — the next candidate re-refines from the
#: root).
CACHE_BYTES_LIMIT = 128 * 1024 * 1024


class Partition:
    """Dedup partition of the ``2**p`` bound-set vertices of ``bound``.

    ``unique_vectors[i]`` is the cofactor mask vector shared by the
    vertices in ``members[i]`` (ascending); groups are ordered by their
    minimum member — exactly the state after the dedup stage of
    :func:`repro.kernel.compat._cover`.  ``free[k]`` is the variable
    tuple output ``k``'s masks range over.
    """

    __slots__ = ("bound", "free", "unique_vectors", "members",
                 "all_complete")

    def __init__(self, bound: Tuple[int, ...], free: Domains,
                 unique_vectors: List[MaskVector],
                 members: List[List[int]], all_complete: bool) -> None:
        self.bound = bound
        self.free = free
        self.unique_vectors = unique_vectors
        self.members = members
        self.all_complete = all_complete

    @property
    def num_vertices(self) -> int:
        return 1 << len(self.bound)

    def nbytes(self) -> int:
        """Rough retained-mask footprint (for the cache byte budget)."""
        per_vector = sum(max(1, (1 << len(free)) >> 3)
                         for free in self.free)
        return len(self.unique_vectors) * 2 * per_vector


class PartitionCache:
    """Refinement chains over one ``(outputs, domains)`` context.

    Keys are bound *tuples* (order matters: it fixes the vertex
    numbering and hence the greedy cover's processing order, which must
    match what a from-scratch ``classes_for`` of the same tuple would
    use).  ``partition_for`` extends the longest cached prefix of the
    requested tuple, so sorted sliding-window candidates and greedy
    growth rounds pay one refinement per new variable.

    ``domains[k]`` is output ``k``'s live support — the free variables
    of the root (empty-bound) partition.  Refining on a variable outside
    it passes that output's masks through unsplit.
    """

    def __init__(self, bdd, outputs: Sequence[ISF], domains: Domains
                 ) -> None:
        self.bdd = bdd
        self.outputs = list(outputs)
        self.domains = domains
        self._chains: Dict[Tuple[int, ...], Partition] = {}
        self._bytes = 0

    @classmethod
    def for_call(cls, bdd, outputs: Sequence[ISF], op: str
                 ) -> Optional["PartitionCache"]:
        """A cache for scoring bound sets of ``outputs``, or ``None``
        (miss counted under ``op``) when the kernel cannot serve.

        Only the outputs' own supports size the tables: refinement
        narrows every domain, so the root partition holds the widest
        table the cache ever builds, whichever variables it splits on.
        """
        domains = _fit_variables(bdd, outputs, (), op)
        if domains is None:
            return None
        return cls(bdd, outputs, domains)

    # -- chain management -------------------------------------------------

    def _remember(self, part: Partition) -> None:
        nbytes = part.nbytes()
        if self._bytes + nbytes > CACHE_BYTES_LIMIT:
            self._chains.clear()
            self._bytes = 0
        self._chains[part.bound] = part
        self._bytes += nbytes

    def _root(self) -> Partition:
        part = self._chains.get(())
        if part is None:
            with profile_phase("cofactors"):
                vectors = _vertex_masks(self.bdd, self.outputs, (),
                                        self.domains)
            uniq, mem, complete = _dedup(vectors)
            part = Partition((), self.domains, uniq, mem, complete)
            self._remember(part)
        return part

    def partition_for(self, bound: Tuple[int, ...]) -> Partition:
        """The partition of ``bound`` (tuple order = vertex numbering),
        refined from the longest cached prefix."""
        part = self._chains.get(bound)
        if part is not None:
            return part
        for k in range(len(bound) - 1, 0, -1):
            part = self._chains.get(bound[:k])
            if part is not None:
                break
        else:
            part = self._root()
        for var in bound[len(part.bound):]:
            part = self.refine(part, var)
            self._remember(part)
        return part

    # -- the refinement step ----------------------------------------------

    def refine(self, part: Partition, var: int) -> Partition:
        """Partition of ``part.bound + (var,)`` by splitting each group
        at ``var``'s cofactor axis (outputs whose domain lacks ``var``
        keep their masks)."""
        start = perf_counter()
        # Per output: (nbits, stride) of its split at var, or None when
        # its domain lacks var.
        splits: List[Optional[Tuple[int, int]]] = []
        free: List[Tuple[int, ...]] = []
        for domain in part.free:
            if var not in domain:
                splits.append(None)
                free.append(domain)
                continue
            fidx = domain.index(var)
            splits.append((1 << len(domain), 1 << (len(domain) - 1 - fidx)))
            free.append(domain[:fidx] + domain[fidx + 1:])

        rep: dict = {}
        uniq: List[MaskVector] = []
        mem: List[List[int]] = []
        for vec, members in zip(part.unique_vectors, part.members):
            halves0: MaskVector = []
            halves1: MaskVector = []
            for pair, split in zip(vec, splits):
                if split is None:
                    halves0.append(pair)
                    halves1.append(pair)
                    continue
                lo, hi = pair
                lo0, lo1 = split_int(lo, *split)
                if hi is lo or hi == lo:
                    hi0, hi1 = lo0, lo1
                else:
                    hi0, hi1 = split_int(hi, *split)
                halves0.append((lo0, hi0))
                halves1.append((lo1, hi1))
            for b, newvec in ((0, halves0), (1, halves1)):
                key = tuple(newvec)
                idx = rep.get(key)
                if idx is None:
                    rep[key] = len(uniq)
                    uniq.append(newvec)
                    mem.append([2 * m + b for m in members])
                else:
                    mem[idx].extend(2 * m + b for m in members)
        for members in mem:
            members.sort()
        order = sorted(range(len(uniq)), key=lambda i: mem[i][0])
        new = Partition(part.bound + (var,), tuple(free),
                        [uniq[i] for i in order], [mem[i] for i in order],
                        part.all_complete)
        STATS.record_hit("kernel_refine", perf_counter() - start)
        return new

    # -- scoring ----------------------------------------------------------

    def ncc_for(self, bound: Tuple[int, ...]) -> int:
        """Joint compatible-class count of ``bound`` — the greedy growth
        metric — via one refinement per new variable."""
        part = self.partition_for(bound)
        with profile_phase("clique_cover"):
            classes, _, _ = _cover_from_partition(
                part.unique_vectors, part.members, part.all_complete,
                part.num_vertices)
        return len(classes)

    def score_for(self, bound: Tuple[int, ...]) -> Tuple[int, int, int]:
        """The ranking score of
        :func:`repro.decomp.bound_set.reduction_score`, byte-identical,
        from the refined partition (joint cover + per-output projected
        covers)."""
        part = self.partition_for(bound)
        start = perf_counter()
        with profile_phase("clique_cover"):
            bound_set = set(bound)
            reduction = 0
            for k, isf in enumerate(self.outputs):
                inter = len(isf.support(self.bdd) & bound_set)
                if inter == 0:
                    continue
                uniq, mem, complete = _project(part, k)
                classes, _, _ = _cover_from_partition(
                    uniq, mem, complete, part.num_vertices)
                reduction += max(0, inter - _min_r(len(classes)))
            joint_classes, _, _ = _cover_from_partition(
                part.unique_vectors, part.members, part.all_complete,
                part.num_vertices)
            ncc = len(joint_classes)
            score = (-reduction, _min_r(ncc), ncc)
        STATS.record_hit("reduction_score", perf_counter() - start)
        return score


def _project(part: Partition, k: int
             ) -> Tuple[List[MaskVector], List[List[int]], bool]:
    """The single-output partition for output ``k``: joint groups whose
    ``k``-components agree merge (no mask copying).  Iterating joint
    groups in stored order keeps first-occurrence (= ascending minimum
    member) group order, matching a from-scratch column dedup."""
    rep: dict = {}
    uniq: List[MaskVector] = []
    mem: List[List[int]] = []
    all_complete = True
    for vec, members in zip(part.unique_vectors, part.members):
        pair = vec[k]
        idx = rep.get(pair)
        if idx is None:
            rep[pair] = len(uniq)
            uniq.append([pair])
            mem.append(list(members))
            if all_complete:
                lo, hi = pair
                if not (hi is lo or hi == lo):
                    all_complete = False
        else:
            mem[idx].extend(members)
    for members in mem:
        members.sort()
    return uniq, mem, all_complete


__all__ = ["Partition", "PartitionCache"]
