"""Formal verification of mapped networks.

BDD-based combinational equivalence checking between a specification
(:class:`~repro.boolfunc.spec.MultiFunction`, possibly incompletely
specified) and an implementation (a
:class:`~repro.mapping.lutnet.LutNetwork` or a
:class:`~repro.mapping.gatelevel.GateNetwork`).  Because ROBDDs are
canonical, equivalence is pointer equality once both sides live in one
manager — the checks are exact, not sampled.

:mod:`repro.verify.bitsim` is the sampled counterpart for networks too
large to simulate symbolically: it packs 64 random input patterns per
pass into Python ints.
"""

from repro.verify.equiv import (
    EquivResult,
    check_extension,
    check_equivalence,
    gate_network_bdds,
    lut_network_bdds,
)

__all__ = [
    "EquivResult",
    "check_extension",
    "check_equivalence",
    "gate_network_bdds",
    "lut_network_bdds",
]
