"""Per-output cofactor states for the bound-set search.

The bound-set search scores many closely related candidate sets:
:func:`repro.decomp.bound_set.greedy_bound_set` scores ``B ∪ {v}`` for
every pool variable ``v`` at every growth round, and
:func:`repro.decomp.bound_set.rank_bound_sets` scores windows that
share most of their variables, ranking after ranking.  Two vertices of
``B`` are jointly compatible iff they are compatible for every output
(PAPER.md §1), so everything a score reads is a function of each
output's cofactors on its own part of the bound, ``B_k = B ∩ S_k``
(``S_k`` its live support).  This module keeps those per output, for a
whole engine run, and assembles a candidate's joint groups only at the
candidate itself.

A :class:`State` of output ``k`` over an ordered ``B_k`` holds its
*alphabet* — its distinct ``(lo, hi)`` cofactor masks over its free
variables, in first-occurrence order over the vertices — its free
tuple, ``col`` (the alphabet index of each of the ``2**|B_k|``
vertices, ``B_k[0]`` the most significant vertex bit) and the index
maps of the split that built it.  The state of ``B_k + (v,)`` is one
split of the state of ``B_k``: ``v`` becomes the least significant
vertex bit, so vertex ``β`` splits into ``2β`` (``v = 0``) and
``2β + 1`` (``v = 1``), and every alphabet entry splits once — slicing
the packed mask at ``v``'s bit stride, never touching the full table —
into two halves, interned in order; ``map0``/``map1`` send each old
entry to its halves' new indices.  Every split counts as one
``kernel_refine`` op.

A :class:`CofactorStore` keys the states by the output's ``(lo, hi)``
node pair and ``B_k``.  The engine creates one per run
(``DecompositionEngine.reset``) and passes it down; a direct call of
:func:`~repro.decomp.bound_set.rank_bound_sets`,
:func:`~repro.decomp.bound_set.greedy_bound_set` or
:meth:`PartitionCache.for_call` without one gets a fresh store for
that call, so no state outlives its run.  The store is bounded by
bytes and clears when it passes :data:`CACHE_BYTES_LIMIT`.

Why the states of ``B_k`` serve any bound ``B``: a split on a variable
outside ``S_k`` leaves output ``k``'s cofactors unchanged, so its
alphabet and the alphabet's order depend only on ``B_k`` in bound
order.  The first vertex of ``B`` that shows an entry has zero bits on
every variable outside ``S_k``, and inserting zero bits keeps vertex
order, so first occurrence over ``B``'s vertices equals first
occurrence over ``B_k``'s.

Leaf assembly (:class:`PartitionCache`): each output's ``col`` is
projected onto ``B``'s vertex numbering by an index table cached per
``(|B|, positions)``, and the joint groups of ``B`` are the distinct
zipped projected columns of the outputs with more than one class, in
first-occurrence order — ascending minimum vertex, the group order of
a from-scratch dedup (:func:`repro.kernel.compat._dedup`).  On a
completely specified view every score is a count: the joint ``ncc`` is
the number of groups and output ``k``'s is its alphabet size, so no
clique cover runs.  The engine ranks completed views only, so that is
its whole search.  An incompletely specified view runs the clique
cover's class count (:func:`repro.kernel.compat._cover_count`) over
the joint unique vectors and over each alphabet, which needs the
distinct vectors in order but no members.

Greedy growth (:meth:`PartitionCache.split_counts`): on a completely
specified view a round assembles the groups of the current bound once,
then maps them through each candidate variable's child states' index
maps; the distinct child keys are the groups of ``B ∪ {v}``.

Evaluation: the engine evaluates the best few ranked candidates on the
same completely specified view and reads their classes off the states
(:meth:`PartitionCache.classes_for`): the groups are the joint classes
and output ``k``'s alphabet is its classes.  Before it evaluates a
candidate that must beat an earlier step, it asks
:meth:`PartitionCache.gain_bound`, which reads only the alphabet sizes.

Bit-identicality: the groups, alphabets and unique vectors are those
of a from-scratch dedup, in its order, so the shared clique step runs
step for step identically, and every score is byte-identical to
:func:`repro.decomp.bound_set.reduction_score`; the property suite in
``tests/kernel/test_refine.py`` enforces it.  Fallbacks to a full
recomputation count under ``classes_from_scratch``, and every set of
classes read off the states counts as a ``classes_for`` hit.
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
    _cover_count,
    _fit_variables,
    _min_r,
    _vertex_masks,
)
from repro.obs.profiler import profile_phase

#: Retained byte budget of one store; past it the store clears
#: (correctness is unaffected — the next read splits from the root).
CACHE_BYTES_LIMIT = 8 * 1024 * 1024

#: One output's distinct cofactor masks, ``(lo, hi)`` per entry.
Alphabet = List[Tuple[int, int]]


class State:
    """One output's cofactors over an ordered part ``B_k`` of a bound.

    ``alphabet`` lists the distinct ``(lo, hi)`` masks over ``free``
    in first-occurrence order, ``col[v]`` is the alphabet index of
    vertex ``v``, and ``map0``/``map1`` send each entry of the parent
    state (over ``B_k[:-1]``) to the indices of its halves at
    ``B_k[-1] = 0`` and ``1`` (``None`` on the root).
    """

    __slots__ = ("alphabet", "free", "col", "map0", "map1")

    def __init__(self, alphabet: Alphabet, free: Tuple[int, ...],
                 col: List[int], map0: Optional[List[int]] = None,
                 map1: Optional[List[int]] = None) -> None:
        self.alphabet = alphabet
        self.free = free
        self.col = col
        self.map0 = map0
        self.map1 = map1

    def nbytes(self, complete: bool) -> int:
        """Rough retained footprint, for the store's byte budget."""
        mask = 32 + ((1 << len(self.free)) >> 3)
        entry = 88 + mask * (1 if complete else 2)
        return 200 + 8 * len(self.col) + entry * len(self.alphabet)


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


def _split_state(parent: State, var: int, complete: bool) -> State:
    """The state of ``B_k + (var,)`` from the state of ``B_k``."""
    start = perf_counter()
    domain = parent.free
    fidx = domain.index(var)
    intern, map0, map1 = _split_alphabet(
        parent.alphabet, 1 << len(domain), 1 << (len(domain) - 1 - fidx),
        complete)
    alphabet = [(lo, lo) for lo in intern] if complete else list(intern)
    col = [0] * (2 * len(parent.col))
    col[0::2] = map(map0.__getitem__, parent.col)
    col[1::2] = map(map1.__getitem__, parent.col)
    state = State(alphabet, domain[:fidx] + domain[fidx + 1:], col,
                  map0, map1)
    STATS.record_hit("kernel_refine", perf_counter() - start)
    return state


def _projection(p: int, positions: Tuple[int, ...]) -> List[int]:
    """For every vertex of a ``p``-variable bound, the vertex of the
    sub-bound at ``positions`` it projects onto (``bound[0]`` the most
    significant bit on both sides)."""
    table = [0]
    inside = set(positions)
    for i in range(p):
        doubled = [0] * (2 * len(table))
        if i in inside:
            table = [2 * u for u in table]
            doubled[0::2] = table
            doubled[1::2] = [u + 1 for u in table]
        else:
            doubled[0::2] = table
            doubled[1::2] = table
        table = doubled
    return table


class CofactorStore:
    """The per-output cofactor states of one engine run.

    States are keyed by the output's ``(lo, hi)`` node pair and its
    part of the bound, so they are only meaningful within one BDD
    manager's run; the engine makes a new store per run.  The
    projection index tables are kept here too.
    """

    def __init__(self) -> None:
        self._states: Dict[Tuple[int, int, Tuple[int, ...]], State] = {}
        self._projections: Dict[Tuple[int, Tuple[int, ...]],
                                List[int]] = {}
        self._bytes = 0

    def _charge(self, nbytes: int) -> None:
        if self._bytes + nbytes > CACHE_BYTES_LIMIT:
            self._states.clear()
            self._projections.clear()
            self._bytes = 0
        self._bytes += nbytes

    def state(self, bdd, isf: ISF, domain: Tuple[int, ...],
              part: Tuple[int, ...]) -> State:
        """The state of ``isf`` (live support ``domain``) over ``part``,
        split from the longest stored prefix of ``part``."""
        lo, hi = isf.lo, isf.hi
        states = self._states
        state = states.get((lo, hi, part))
        if state is not None:
            return state
        for done in range(len(part) - 1, -1, -1):
            state = states.get((lo, hi, part[:done]))
            if state is not None:
                break
        else:
            with profile_phase("cofactors"):
                (vector,) = _vertex_masks(bdd, [isf], (), (domain,))
            state = State(vector, domain, [0])
            self._charge(state.nbytes(lo == hi))
            states[(lo, hi, ())] = state
            done = 0
        for i in range(done, len(part)):
            state = self.child(isf, state, part[:i], part[i])
        return state

    def child(self, isf: ISF, parent: State, part: Tuple[int, ...],
              var: int) -> State:
        """The state of ``isf`` over ``part + (var,)``, given its state
        ``parent`` over ``part``."""
        key = (isf.lo, isf.hi, part + (var,))
        state = self._states.get(key)
        if state is None:
            complete = isf.lo == isf.hi
            state = _split_state(parent, var, complete)
            self._charge(state.nbytes(complete))
            self._states[key] = state
        return state

    def projection(self, p: int, positions: Tuple[int, ...]) -> List[int]:
        """:func:`_projection`, kept per ``(p, positions)``."""
        key = (p, positions)
        table = self._projections.get(key)
        if table is None:
            table = _projection(p, positions)
            self._charge(64 + 8 * len(table))
            self._projections[key] = table
        return table


class PartitionCache:
    """Bound-set scores and classes of one ``(outputs, domains)``
    context, assembled from the states of its outputs in ``store``.

    Bounds are *tuples*: their order fixes the vertex numbering and
    hence the greedy cover's processing order, which must match what a
    from-scratch ``classes_for`` of the same tuple would use.
    ``domains[k]`` is output ``k``'s live support, the free variables
    of its root state.
    """

    def __init__(self, bdd, outputs: Sequence[ISF], domains: Domains,
                 store: Optional[CofactorStore] = None) -> None:
        self.bdd = bdd
        self.outputs = list(outputs)
        self.domains = domains
        self.store = CofactorStore() if store is None else store
        self._supports = [frozenset(domain) for domain in domains]
        self.all_complete = all(isf.lo == isf.hi for isf in self.outputs)

    @classmethod
    def for_call(cls, bdd, outputs: Sequence[ISF], op: str,
                 store: Optional[CofactorStore] = None
                 ) -> Optional["PartitionCache"]:
        """A cache for scoring bound sets of ``outputs`` on ``store``
        (a fresh one when left out), or ``None`` (miss counted under
        ``op``) when the kernel cannot serve.

        Only the outputs' own supports size the tables: splitting
        narrows every domain, so the root states hold the widest tables
        the cache ever builds, whichever variables it splits on.
        """
        domains = _fit_variables(bdd, outputs, (), op)
        if domains is None:
            return None
        return cls(bdd, outputs, domains, store)

    # -- assembly ---------------------------------------------------------

    def _states(self, bound: Tuple[int, ...]
                ) -> Tuple[List[State], List[Tuple[int, ...]]]:
        """Each output's state over its part of ``bound``, and that
        part."""
        store, bdd = self.store, self.bdd
        states: List[State] = []
        parts: List[Tuple[int, ...]] = []
        for isf, domain, support in zip(self.outputs, self.domains,
                                        self._supports):
            part = tuple(filter(support.__contains__, bound))
            states.append(store.state(bdd, isf, domain, part))
            parts.append(part)
        return states, parts

    def _columns(self, states: List[State], parts: List[Tuple[int, ...]],
                 bound: Tuple[int, ...]
                 ) -> Tuple[List[int], List[List[int]]]:
        """The outputs with more than one class, and their ``col``
        projected onto the vertices of ``bound``."""
        p = len(bound)
        multi: List[int] = []
        cols: List[List[int]] = []
        for k, (state, part) in enumerate(zip(states, parts)):
            if len(state.alphabet) > 1:
                multi.append(k)
                if len(part) == p:
                    cols.append(state.col)
                    continue
                support = self._supports[k]
                positions = tuple(i for i, var in enumerate(bound)
                                  if var in support)
                cols.append(list(map(state.col.__getitem__,
                                     self.store.projection(p, positions))))
        return multi, cols

    @staticmethod
    def _unique_vectors(states: List[State], multi: List[int],
                        keys) -> List[MaskVector]:
        """The cofactor vector of every distinct joint key, in order."""
        base = [state.alphabet[0] for state in states]
        vectors = []
        for key in dict.fromkeys(keys):
            vec = base[:]
            for k, index in zip(multi, key):
                vec[k] = states[k].alphabet[index]
            vectors.append(vec)
        return vectors

    def _vectors(self, states: List[State], parts: List[Tuple[int, ...]],
                 bound: Tuple[int, ...]) -> List[MaskVector]:
        """The cofactor vector of every joint group of ``bound``, in
        group order: the distinct vectors of a from-scratch dedup."""
        multi, cols = self._columns(states, parts, bound)
        return self._unique_vectors(states, multi,
                                    zip(*cols) if cols else [()])

    def _joint_ncc(self, states: List[State], parts: List[Tuple[int, ...]],
                   bound: Tuple[int, ...]) -> int:
        """Joint compatible-class count of ``bound``."""
        if not self.all_complete:
            return _cover_count(self._vectors(states, parts, bound), False)
        multi, cols = self._columns(states, parts, bound)
        if len(cols) < 2:
            return len(states[multi[0]].alphabet) if cols else 1
        return len(set(zip(*cols)))

    # -- scoring ----------------------------------------------------------

    def score_for(self, bound: Tuple[int, ...]) -> Tuple[int, int, int]:
        """The ranking score of
        :func:`repro.decomp.bound_set.reduction_score`, byte-identical,
        from the outputs' states: counts on a completely specified
        view, else the joint cover and per-output covers."""
        bound = tuple(bound)
        states, parts = self._states(bound)
        start = perf_counter()
        if self.all_complete:
            shrinking = self._shrinking(states, parts)
            ncc = self._joint_ncc(states, parts, bound)
        else:
            with profile_phase("clique_cover"):
                shrinking = self._shrinking(states, parts)
                ncc = self._joint_ncc(states, parts, bound)
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
        shrinking = self._shrinking(*self._states(tuple(bound)))
        reduction = sum(inter - r for inter, r in shrinking)
        return reduction - min((r for _, r in shrinking), default=0) // 2

    def _shrinking(self, states: List[State],
                   parts: List[Tuple[int, ...]]
                   ) -> List[Tuple[int, int]]:
        """``(|S_k ∩ B|, min_r(ncc_k))`` of every output ``k`` the bound
        shrinks, ``|S_k ∩ B| > min_r(ncc_k)``: ``ncc_k`` is the size of
        the output's alphabet on a completely specified view, else its
        cover's class count (see :func:`_ncc`)."""
        shrinking = []
        for state, part in zip(states, parts):
            if part:
                r = _min_r(len(state.alphabet) if self.all_complete
                           else _ncc(state))
                if len(part) > r:
                    shrinking.append((len(part), r))
        return shrinking

    def split_counts(self, bound: Tuple[int, ...],
                     variables: Sequence[int]) -> List[int]:
        """The joint ``ncc`` of ``bound + (v,)`` for every ``v`` of
        ``variables`` (none of them in ``bound``).

        On a completely specified view the groups of ``bound`` are
        assembled once, and each ``v`` maps them through its child
        states' index maps: the distinct child keys are the groups of
        ``bound + (v,)``.  Outputs that do not depend on ``v`` pass
        their column through, and an output with one class on both
        sides is left out, since it tells no keys apart.  The clique
        cover of an incompletely specified view needs the child vectors
        in vertex order, so each child bound is assembled on its own.
        """
        bound = tuple(bound)
        if not self.all_complete:
            counts = []
            for var in variables:
                child = bound + (var,)
                states, parts = self._states(child)
                with profile_phase("clique_cover"):
                    counts.append(_cover_count(
                        self._vectors(states, parts, child), False))
            return counts
        states, parts = self._states(bound)
        multi, cols = self._columns(states, parts, bound)
        groups = list(dict.fromkeys(zip(*cols))) if cols else [()]
        size = len(groups)
        #: ``None`` for an output with one class at ``bound``.
        columns: List[Optional[Sequence[int]]] = [None] * len(states)
        for k, column in zip(multi, zip(*groups)):
            columns[k] = column
        store = self.store
        counts = []
        for var in variables:
            cols0: List[Sequence[int]] = []
            cols1: List[Sequence[int]] = []
            for isf, state, part, column in zip(self.outputs, states,
                                                parts, columns):
                if var in state.free:
                    state = store.child(isf, state, part, var)
                    if column is None:
                        cols0.append([state.map0[0]] * size)
                        cols1.append([state.map1[0]] * size)
                    else:
                        cols0.append(list(map(state.map0.__getitem__,
                                              column)))
                        cols1.append(list(map(state.map1.__getitem__,
                                              column)))
                elif column is not None:
                    cols0.append(column)
                    cols1.append(column)
            keys = set(zip(*cols0))
            keys.update(zip(*cols1))
            counts.append(len(keys) if cols0 else 1)
        return counts

    # -- classes ----------------------------------------------------------

    def classes_for(self, bound: Tuple[int, ...]):
        """The joint and per-output compatible classes of ``bound`` on a
        completely specified view, read off the outputs' states, or
        ``None`` on an incompletely specified one.

        Returns ``(joint, per_output)`` in the form of
        :func:`repro.kernel.compat.kernel_classes_for`, byte-identical
        to it: the joint groups are the joint classes and output
        ``k``'s alphabet is its classes, both in ascending minimum
        vertex, which is the class numbering of the cover.  Each
        output's free variables are its support minus the bound, as
        there.  Every class set read counts as a ``classes_for`` hit.
        """
        if not self.all_complete:
            return None
        bound = tuple(bound)
        with profile_phase("cofactors"):
            states, parts = self._states(bound)
        with profile_phase("clique_cover"):
            start = perf_counter()
            vertices = 1 << len(bound)
            multi, cols = self._columns(states, parts, bound)
            index: dict = {}
            of = [index.setdefault(key, len(index))
                  for key in (zip(*cols) if cols else [()] * vertices)]
            classes: List[List[int]] = [[] for _ in index]
            for v, g in enumerate(of):
                classes[g].append(v)
            joint = (bound, classes, of,
                     self._unique_vectors(states, multi, index),
                     [state.free for state in states])
            STATS.record_hit("classes_for", perf_counter() - start)
            col_of = dict(zip(multi, cols))
            per_output = []
            for k, state in enumerate(states):
                start = perf_counter()
                class_of = list(col_of[k]) if k in col_of \
                    else [0] * vertices
                members: List[List[int]] = [[] for _ in state.alphabet]
                for v, c in enumerate(class_of):
                    members[c].append(v)
                per_output.append((bound, members, class_of,
                                   [[pair] for pair in state.alphabet],
                                   [state.free]))
                STATS.record_hit("classes_for", perf_counter() - start)
        return joint, per_output


def _ncc(state: State) -> int:
    """Compatible-class count of one output alone.  Its alphabet is its
    dedup, in order (see the module docstring), so this is the class
    count of a from-scratch single-output cover."""
    alphabet = state.alphabet
    return _cover_count([[pair] for pair in alphabet],
                        all(hi is lo or hi == lo for lo, hi in alphabet))


__all__ = ["CofactorStore", "PartitionCache", "State"]
