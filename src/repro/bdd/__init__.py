"""Reduced Ordered Binary Decision Diagram (ROBDD) package.

This is a from-scratch BDD implementation supporting everything the
decomposition flow of Scholl (DATE 1998) needs:

* a :class:`~repro.bdd.manager.BDD` manager with unique and computed
  tables, ITE-based Boolean operations, cofactors, composition and
  quantification (:mod:`repro.bdd.manager`, :mod:`repro.bdd.ops`);
* symmetry detection for completely specified functions
  (:mod:`repro.bdd.symmetry`);
* functional reordering by rebuild (:mod:`repro.bdd.reorder`), used by
  the cut-count reference for ``ncc``;
* serialisation of node graphs for the wire format
  (:mod:`repro.bdd.serialize`).

Nodes are plain integers owned by their manager; ``BDD.FALSE == 0`` and
``BDD.TRUE == 1`` are the terminals.
"""

from repro.bdd.manager import BDD
from repro.bdd.symmetry import (
    symmetric_in,
    equivalence_symmetric_in,
    symmetry_groups,
)

__all__ = [
    "BDD",
    "symmetric_in",
    "equivalence_symmetric_in",
    "symmetry_groups",
]
