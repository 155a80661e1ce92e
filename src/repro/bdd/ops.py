"""Higher-level BDD operations used by the decomposition flow.

The central helper is :func:`bound_cofactors`: the decomposition algorithms
of the paper need, for a bound set ``B = {x_{i1}, .., x_{ip}}``, the
``2**p`` cofactors of a function — one per *bound-set vertex*.  Two bound
set vertices are compatible iff their cofactors agree (Roth/Karp), and the
number of distinct cofactors is the number of compatible classes ``ncc``.
Because ROBDDs are canonical, cofactor equality is node-id equality, which
makes the class computation independent of the global variable order
(equivalent to the cut-counting method of Lai/Pedram/Vrudhula but without
requiring the bound variables on top).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.bdd.manager import BDD


def bound_cofactors(bdd: BDD, f: int, bound_vars: Sequence[int]) -> List[int]:
    """All ``2**p`` cofactors of ``f`` w.r.t. the bound variables.

    Index ``k`` corresponds to the bound-set vertex whose bit ``i`` (MSB
    first, i.e. ``bound_vars[0]`` is the most significant) is
    ``(k >> (p - 1 - i)) & 1``.

    The cofactors are expanded as a binary tree of restrictions so shared
    work is reused: ``O(2**p)`` restrict calls total.
    """
    cofactors = [f]
    for var in bound_vars:
        nxt: List[int] = []
        for node in cofactors:
            nxt.append(bdd.restrict(node, var, 0))
            nxt.append(bdd.restrict(node, var, 1))
        cofactors = nxt
    return cofactors


def lut_function(bdd: BDD, fanins: Sequence[int],
                 table: Iterable[int]) -> int:
    """The function a LUT computes from its fanins' functions.

    ``table`` holds the LUT's ``2**k`` output bits, indexed as in
    :class:`~repro.mapping.lutnet.LutNetwork`: in row ``r`` fanin ``i``
    reads bit ``k - 1 - i`` of ``r`` (``fanins[0]`` is the most
    significant).  Shannon composition folds the table pairwise from the
    last fanin up, ``ite(fanin, high row, low row)``, so a ``k``-input
    LUT costs ``2**k - 1`` :meth:`BDD.ite` calls.
    """
    level = [BDD.TRUE if bit else BDD.FALSE for bit in table]
    for fanin in reversed(fanins):
        level = [bdd.ite(fanin, level[j + 1], level[j])
                 for j in range(0, len(level), 2)]
    return level[0]


def vertex_bits(k: int, p: int) -> tuple:
    """Bit tuple (MSB first) of bound-set vertex index ``k`` with ``p`` bits."""
    return tuple((k >> (p - 1 - i)) & 1 for i in range(p))


def vertex_index(bits: Sequence[int]) -> int:
    """Inverse of :func:`vertex_bits`."""
    k = 0
    for b in bits:
        k = (k << 1) | b
    return k


def boolean_difference(bdd: BDD, f: int, var: int) -> int:
    """Boolean difference ``df/dx = f|x=0 XOR f|x=1``."""
    return bdd.apply_xor(bdd.restrict(f, var, 0), bdd.restrict(f, var, 1))


def depends_on(bdd: BDD, f: int, var: int) -> bool:
    """Does ``f`` genuinely depend on ``var``?"""
    return var in bdd.support(f)


def cofactor2(bdd: BDD, f: int, var_i: int, var_j: int,
              val_i: int, val_j: int) -> int:
    """Double cofactor ``f|x_i=val_i, x_j=val_j``."""
    return bdd.restrict(bdd.restrict(f, var_i, val_i), var_j, val_j)


def swap_vars(bdd: BDD, f: int, var_i: int, var_j: int) -> int:
    """The function with variables ``x_i`` and ``x_j`` exchanged."""
    return bdd.rename(f, {var_i: var_j, var_j: var_i})


def from_vertex_set(bdd: BDD, vertices: Sequence[int],
                    bound_vars: Sequence[int]) -> int:
    """Characteristic function (over the bound variables) of a vertex set.

    ``vertices`` holds vertex indices in the :func:`vertex_bits` encoding.
    """
    p = len(bound_vars)
    cubes = []
    for k in vertices:
        bits = vertex_bits(k, p)
        cubes.append(bdd.cube({bound_vars[i]: bits[i] for i in range(p)}))
    return bdd.disjoin(cubes)


def build_from_vertex_function(bdd: BDD, values: Sequence[int],
                               bound_vars: Sequence[int]) -> int:
    """BDD (over the bound variables) of a function given per vertex.

    ``values[k]`` is the function value on vertex ``k``; this is just a
    truth table over the bound variables in MSB-first vertex order.
    """
    return bdd.from_truth_table(values, bound_vars)


def minterm_count(bdd: BDD, f: int, variables: Sequence[int]) -> int:
    """Number of minterms of ``f`` over the given variable set."""
    extra = [v for v in bdd.support(f) if v not in set(variables)]
    if extra:
        raise ValueError(f"function depends on variables outside the set: {extra}")
    # Count over all manager variables, then divide out the ones not in
    # `variables` (each contributes an unconstrained factor of two).
    total = bdd.sat_count(f, bdd.num_vars)
    return total >> (bdd.num_vars - len(variables))


def substitute_bound(bdd: BDD, f: int, mapping: Dict[int, int]) -> int:
    """Rename variables of ``f`` according to ``mapping`` (var -> var)."""
    return bdd.rename(f, mapping)
