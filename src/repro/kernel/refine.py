"""Incremental bound-set partition refinement.

The bound-set search evaluates *families* of closely related candidate
sets: :func:`repro.decomp.bound_set.greedy_bound_set` scores
``B ∪ {v}`` for every pool variable ``v`` at every growth round, and
:func:`repro.decomp.bound_set.rank_bound_sets` scores sliding windows
that share long sorted prefixes.  Recomputing ``classes_for`` from
scratch re-extracts and re-deduplicates the full ``2**n`` truth table
per candidate; this module instead *refines* a cached vertex partition.

A :class:`Partition` keeps each output's *alphabet* — its distinct
``(lo, hi)`` cofactor masks — once, and each group of equal-cofactor
vertices as a tuple of small ints, one alphabet index per output.
Appending ``v`` to a bound ``B`` makes it the least significant vertex
bit (``bound[0]`` is the MSB), so every old vertex ``β`` splits into
``2β`` (``v = 0``) and ``2β + 1`` (``v = 1``), and the cofactor table
of each new vertex is one *half* of its parent's.  A refinement
therefore splits every alphabet entry once — slicing the packed mask
at ``v``'s bit stride, never touching the full table — interns the
halves per output, and maps each group to its two child keys by index
lookup; the groups of ``B ∪ {v}`` are the distinct child keys.

Each output keeps its own table domain (its live support, see
:func:`repro.kernel.compat._fit_variables`): an output that does not
depend on ``v`` has equal cofactors at ``v = 0`` and ``v = 1``, so its
alphabet passes through the split unchanged — exactly the masks a
from-scratch extraction over that output's ``support ∪ B ∪ {v}``
produces.

Counting: every alphabet entry is the cofactor of some group, and
splitting preserves completeness.  On a completely specified partition
the joint compatible-class count is therefore the number of groups and
output ``k``'s is the size of its alphabet, so scoring runs no clique
cover, and the greedy growth counts a candidate's distinct child keys
without building its partition (:meth:`PartitionCache.count_split`).
The engine ranks completed views only, so that is its whole search.
Incompletely specified partitions are projected per output and run the
clique cover's class count (:func:`repro.kernel.compat._cover_count`),
which needs the distinct vectors in order but not their members.

Evaluation: the engine evaluates the best few ranked candidates on the
same completely specified view, so it keeps the ranking's cache and
reads each candidate's classes off its partition
(:meth:`PartitionCache.classes_for`): the groups are the joint classes
and output ``k``'s alphabet is its classes.  Only these few reads need
the members of each group, so a refinement keeps just its parent and
its split's child keys, which it computed anyway, and
:meth:`Partition.vertex_groups` derives the members from them on the
first read; a count-only split keeps nothing.  Before it evaluates a
candidate that must beat an earlier step, the engine asks
:meth:`PartitionCache.gain_bound` whether it can: the alphabet sizes
bound the step's gain without reading a single class.

Bit-identicality: parent groups come in ascending minimum vertex ``m``
and each splits into ``2m`` then ``2m + 1``, so the first-occurrence
order of the child keys is ascending minimum vertex — the group order
of a from-scratch dedup, with no sort.  Completeness is preserved, so
the refined partition has the from-scratch partition's distinct
vectors in its order, and the shared clique step runs step for step
identically.  Scores derived here are therefore byte-identical to
:func:`repro.decomp.bound_set.reduction_score`; the property suite in
``tests/kernel/test_refine.py`` enforces it.

Every refinement and every count-only split is counted under the
``kernel_refine`` op (and fallbacks to full recomputation under
``classes_from_scratch``), so ``--profile`` shows the search performing
O(1) refinements per candidate variable instead of full
``classes_for`` calls.  Every set of classes read off a partition
counts as a ``classes_for`` hit.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolfunc.spec import ISF
from repro.kernel import STATS
from repro.kernel.bitset import split_int
from repro.kernel.compat import (
    Domains,
    MaskVector,
    _cover_count,
    _fit_variables,
    _min_r,
    _vertex_masks,
)
from repro.obs.profiler import profile_phase

#: Retained-mask byte budget per cache; past it the chain cache clears
#: (correctness is unaffected — the next candidate re-refines from the
#: root).
CACHE_BYTES_LIMIT = 128 * 1024 * 1024

#: One output's distinct cofactor masks, ``(lo, hi)`` per entry.
Alphabet = List[Tuple[int, int]]


class Partition:
    """Dedup partition of the ``2**p`` bound-set vertices of ``bound``.

    ``alphabets[k]`` lists output ``k``'s distinct cofactor masks, and
    ``groups[i]`` holds one index into each alphabet: the cofactor
    vector shared by one group of vertices.  Groups are ordered by
    their minimum vertex — exactly the state after the dedup stage of
    :func:`repro.kernel.compat._cover`.  ``free[k]`` is the variable
    tuple output ``k``'s masks range over.

    Scoring never asks which vertices form a group: every score is a
    count, and a clique cover's class count does not depend on the
    members (:func:`repro.kernel.compat._cover_count`).  A refinement
    therefore only keeps its ``parent`` and its ``children`` — per
    parent group, the child keys at ``v = 0`` and ``v = 1``, which the
    split computed anyway — and :meth:`vertex_groups` derives the
    members from them on first read, for the few candidates the engine
    evaluates.  ``unique_vectors`` is built from the alphabets on each
    read, since count-only scoring of a complete partition never reads
    it.
    """

    __slots__ = ("bound", "free", "alphabets", "groups", "all_complete",
                 "nbytes", "parent", "children", "_vertex_groups")

    def __init__(self, bound: Tuple[int, ...], free: Domains,
                 alphabets: List[Alphabet], groups: List[Tuple[int, ...]],
                 all_complete: bool, parent: Optional["Partition"] = None,
                 children: Optional[Tuple[list, list]] = None) -> None:
        self.bound = bound
        self.free = free
        self.alphabets = alphabets
        self.groups = groups
        self.all_complete = all_complete
        self.parent = parent
        self.children = children
        self._vertex_groups: Optional[List[int]] = None
        #: Rough retained footprint (groups, the child keys and the
        #: masks), for the cache byte budget.
        self.nbytes = 3 * len(groups) * 8 * (len(free) + 2) + sum(
            len(alphabet) * 2 * max(1, (1 << len(domain)) >> 3)
            for alphabet, domain in zip(alphabets, free))

    @property
    def unique_vectors(self) -> List[MaskVector]:
        alphabets = self.alphabets
        return [list(map(getitem, alphabets, group))
                for group in self.groups]

    def vertex_groups(self) -> List[int]:
        """The group index of every vertex (vertex order =
        ``vertex_bits``): vertex ``2β + b`` lies in the group of its
        parent group's child key at ``b``."""
        of = self._vertex_groups
        if of is None:
            if self.parent is None:
                of = [0]
            else:
                index = {key: i for i, key in enumerate(self.groups)}
                keys0, keys1 = self.children
                child0 = [index[key] for key in keys0]
                child1 = [index[key] for key in keys1]
                of = []
                for g in self.parent.vertex_groups():
                    of.append(child0[g])
                    of.append(child1[g])
            self._vertex_groups = of
        return of


def _split_alphabet(alphabet: Alphabet, nbits: int, stride: int,
                    complete: bool
                    ) -> Tuple[dict, List[int], List[int]]:
    """Split every entry of one output's alphabet at a variable of bit
    ``stride``.  Returns the interned halves (insertion-ordered dict:
    half -> new index; a half is the ``lo`` mask when ``complete``,
    else the ``(lo, hi)`` pair) and, per old entry, the new index of
    its ``0``- and ``1``-half."""
    intern: dict = {}
    setdefault = intern.setdefault
    map0: List[int] = []
    map1: List[int] = []
    if complete:
        for lo, _ in alphabet:
            lo0, lo1 = split_int(lo, nbits, stride)
            map0.append(setdefault(lo0, len(intern)))
            map1.append(setdefault(lo1, len(intern)))
        return intern, map0, map1
    for lo, hi in alphabet:
        lo0, lo1 = split_int(lo, nbits, stride)
        if hi is lo or hi == lo:
            hi0, hi1 = lo0, lo1
        else:
            hi0, hi1 = split_int(hi, nbits, stride)
        map0.append(setdefault((lo0, hi0), len(intern)))
        map1.append(setdefault((lo1, hi1), len(intern)))
    return intern, map0, map1


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
        #: Output ``k``'s support as a set, for the score's
        #: ``|S_k ∩ B|`` term.
        self._supports = [frozenset(domain) for domain in domains]
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
        if self._bytes + part.nbytes > CACHE_BYTES_LIMIT:
            self._chains.clear()
            self._bytes = 0
        self._chains[part.bound] = part
        self._bytes += part.nbytes

    def _root(self) -> Partition:
        part = self._chains.get(())
        if part is None:
            with profile_phase("cofactors"):
                (vector,) = _vertex_masks(self.bdd, self.outputs, (),
                                          self.domains)
            part = Partition((), self.domains,
                             [[pair] for pair in vector],
                             [(0,) * len(vector)],
                             all(lo == hi for lo, hi in vector))
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

    def _split(self, part: Partition, var: int):
        """Split ``part``'s alphabets at ``var``.  Returns the new free
        tuples, the interned halves per output (``None`` where the
        domain lacks ``var``) and the index columns of the ``0``- and
        ``1``-children, one per output, in group order."""
        columns = list(zip(*part.groups))
        free: List[Tuple[int, ...]] = []
        halves: List[Optional[dict]] = []
        cols0: List[Sequence[int]] = []
        cols1: List[Sequence[int]] = []
        for alphabet, domain, column in zip(part.alphabets, part.free,
                                            columns):
            if var not in domain:
                free.append(domain)
                halves.append(None)
                cols0.append(column)
                cols1.append(column)
                continue
            fidx = domain.index(var)
            free.append(domain[:fidx] + domain[fidx + 1:])
            intern, map0, map1 = _split_alphabet(
                alphabet, 1 << len(domain), 1 << (len(domain) - 1 - fidx),
                part.all_complete)
            halves.append(intern)
            cols0.append(list(map(map0.__getitem__, column)))
            cols1.append(list(map(map1.__getitem__, column)))
        return free, halves, cols0, cols1

    def refine(self, part: Partition, var: int) -> Partition:
        """Partition of ``part.bound + (var,)`` by splitting each group
        at ``var``'s cofactor axis (outputs whose domain lacks ``var``
        keep their masks)."""
        start = perf_counter()
        free, halves, cols0, cols1 = self._split(part, var)
        alphabets: List[Alphabet] = []
        for alphabet, intern in zip(part.alphabets, halves):
            if intern is None:
                alphabets.append(alphabet)
            elif part.all_complete:
                alphabets.append([(lo, lo) for lo in intern])
            else:
                alphabets.append(list(intern))
        keys0 = list(zip(*cols0))
        keys1 = list(zip(*cols1))
        # First occurrence over (group 0 at var=0, at var=1, group 1
        # ...) is ascending minimum vertex: see the module docstring.
        groups = list(dict.fromkeys(chain.from_iterable(zip(keys0,
                                                            keys1))))
        new = Partition(part.bound + (var,), tuple(free), alphabets,
                        groups, part.all_complete, part, (keys0, keys1))
        STATS.record_hit("kernel_refine", perf_counter() - start)
        return new

    def count_split(self, part: Partition, var: int) -> int:
        """Joint ``ncc`` of ``part.bound + (var,)`` for a completely
        specified ``part``: the number of distinct child keys, without
        building the refined partition."""
        start = perf_counter()
        _, _, cols0, cols1 = self._split(part, var)
        keys = set(zip(*cols0))
        keys.update(zip(*cols1))
        STATS.record_hit("kernel_refine", perf_counter() - start)
        return len(keys)

    # -- scoring ----------------------------------------------------------

    def ncc_for(self, bound: Tuple[int, ...]) -> int:
        """Joint compatible-class count of ``bound`` — the greedy growth
        metric — via one refinement per new variable."""
        part = self.partition_for(bound)
        if part.all_complete:
            return len(part.groups)
        with profile_phase("clique_cover"):
            return _cover_count(part.unique_vectors, False)

    def score_for(self, bound: Tuple[int, ...]) -> Tuple[int, int, int]:
        """The ranking score of
        :func:`repro.decomp.bound_set.reduction_score`, byte-identical,
        from the refined partition: counts on a completely specified
        one, else the joint cover and per-output projected covers."""
        part = self.partition_for(bound)
        start = perf_counter()
        if part.all_complete:
            shrinking = self._shrinking(part, bound)
            ncc = len(part.groups)
        else:
            with profile_phase("clique_cover"):
                shrinking = self._shrinking(part, bound)
                ncc = _cover_count(part.unique_vectors, False)
        reduction = sum(inter - r for inter, r in shrinking)
        STATS.record_hit("reduction_score", perf_counter() - start)
        return (-reduction, _min_r(ncc), ncc)

    def gain_bound(self, bound: Tuple[int, ...]) -> int:
        """An upper bound on the gain of the engine's decomposition step
        on ``bound`` (``DecompositionEngine._evaluate_candidate`` in
        :mod:`repro.decomp.recursive`), read off the alphabet sizes.

        The step's gain is ``sum_k (|S_k ∩ B| - r_k)`` over its included
        outputs, less half its alphas, rounded down.  ``r_k`` is at
        least ``min_r(ncc_k)``, and an output is included only when
        ``|S_k ∩ B| > r_k``, so the sum is at most :meth:`score_for`'s
        reduction, and every included output brings at least ``m``
        alphas, the least ``min_r(ncc_k)`` among the outputs that could
        be included.  The bound is the reduction less ``m // 2``.
        """
        shrinking = self._shrinking(self.partition_for(bound), bound)
        reduction = sum(inter - r for inter, r in shrinking)
        return reduction - min((r for _, r in shrinking), default=0) // 2

    def _shrinking(self, part: Partition, bound: Tuple[int, ...]
                   ) -> List[Tuple[int, int]]:
        """``(|S_k ∩ B|, min_r(ncc_k))`` of every output ``k`` the bound
        shrinks, ``|S_k ∩ B| > min_r(ncc_k)``: ``ncc_k`` is the size of
        the output's alphabet on a completely specified partition, else
        its projected cover's class count."""
        bound_set = set(bound)
        shrinking = []
        for k, support in enumerate(self._supports):
            inter = len(support & bound_set)
            if inter:
                r = _min_r(len(part.alphabets[k]) if part.all_complete
                           else _projected_ncc(part, k))
                if inter > r:
                    shrinking.append((inter, r))
        return shrinking

    # -- classes ----------------------------------------------------------

    def classes_for(self, bound: Tuple[int, ...]):
        """The joint and per-output compatible classes of ``bound`` on a
        completely specified cache, read off its refined partition, or
        ``None`` on an incompletely specified one.

        Returns ``(joint, per_output)`` in the form of
        :func:`repro.kernel.compat.kernel_classes_for`, byte-identical
        to it: on a complete partition the groups are the joint classes
        and output ``k``'s alphabet is its classes, both in ascending
        minimum vertex (see :func:`_projected_ncc`), which is the class
        numbering of the cover.  Each output's free variables are its
        support minus the bound, as there.  Every class set read counts
        as a ``classes_for`` hit.
        """
        with profile_phase("cofactors"):
            part = self.partition_for(bound)
        if not part.all_complete:
            return None
        with profile_phase("clique_cover"):
            start = perf_counter()
            of = part.vertex_groups()
            classes: List[List[int]] = [[] for _ in part.groups]
            for v, g in enumerate(of):
                classes[g].append(v)
            joint = (part.bound, classes, list(of), part.unique_vectors,
                     list(part.free))
            STATS.record_hit("classes_for", perf_counter() - start)
            per_output = []
            for k, (alphabet, free) in enumerate(zip(part.alphabets,
                                                     part.free)):
                start = perf_counter()
                column = [group[k] for group in part.groups]
                class_of = [column[g] for g in of]
                members: List[List[int]] = [[] for _ in alphabet]
                for v, c in enumerate(class_of):
                    members[c].append(v)
                per_output.append((part.bound, members, class_of,
                                   [[pair] for pair in alphabet], [free]))
                STATS.record_hit("classes_for", perf_counter() - start)
        return joint, per_output


def _projected_ncc(part: Partition, k: int) -> int:
    """Compatible-class count of output ``k`` alone.  Its alphabet is
    its projected partition, in order: every entry is some group's
    cofactor, and a split interns the halves in the order the groups
    first reach them (ascending minimum vertex), which is the group
    order of a from-scratch single-output dedup."""
    alphabet = part.alphabets[k]
    return _cover_count([[pair] for pair in alphabet],
                        all(hi is lo or hi == lo for lo, hi in alphabet))


__all__ = ["Partition", "PartitionCache"]
