"""Functional variable reordering.

:func:`rebuild` snapshots the structure of the root functions, installs
the new order (which resets the node store) and reconstructs the
functions bottom-up.  This is slower than in-place level swapping but
simple and obviously correct.  The decomposition flow itself is
order-independent (cofactors are computed per bound-set vertex) and
never reorders a manager; :func:`rebuild` is what the cut-count
reference (:mod:`repro.decomp.cut_count`) uses to move a bound set to
the top of the order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.bdd.manager import BDD


def _extract(bdd: BDD, roots: Sequence[int]) -> Tuple[list, list]:
    """Snapshot the node graphs of ``roots`` (children-first order)."""
    order: List[int] = []
    seen = set()
    expanded_once = set()

    def visit(node: int) -> None:
        stack = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if current <= 1 or current in seen:
                continue
            if expanded:
                seen.add(current)
                order.append(current)
            elif current not in expanded_once:
                expanded_once.add(current)
                stack.append((current, True))
                stack.append((bdd.low(current), False))
                stack.append((bdd.high(current), False))

    for root in roots:
        visit(root)
    nodes = [(n, bdd.var_of(n), bdd.low(n), bdd.high(n)) for n in order]
    return nodes, list(roots)


def rebuild(bdd: BDD, roots: Sequence[int],
            new_order: Sequence[int]) -> List[int]:
    """Install ``new_order`` and rebuild ``roots``; returns the new ids.

    Any node id not among ``roots`` is invalid afterwards.
    """
    nodes, old_roots = _extract(bdd, roots)
    bdd.set_order(new_order)
    remap = {BDD.FALSE: BDD.FALSE, BDD.TRUE: BDD.TRUE}
    for node, var, low, high in nodes:
        remap[node] = bdd.ite(bdd.var(var), remap[high], remap[low])
    return [remap[r] for r in old_roots]
