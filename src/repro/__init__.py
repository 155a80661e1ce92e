"""Reproduction of Scholl, *Multi-output Functional Decomposition with
Exploitation of Don't Cares* (DATE 1998).

Subpackages
-----------
``repro.bdd``
    From-scratch ROBDD manager (unique/computed tables, ITE, cofactors,
    quantification, symmetry detection).
``repro.boolfunc``
    Incompletely specified functions (interval ``[lo, hi]``), cube
    lists, PLA and BLIF I/O.
``repro.symmetry``
    Symmetries of ISFs and the symmetry-maximising don't-care
    assignment (paper step 1).
``repro.decomp``
    Compatible classes, strict decomposition functions, common
    decomposition functions for multi-output functions, the three-step
    don't-care assignment, bound-set search, and the recursive drivers
    ``mulopII`` / ``mulop-dc``.
``repro.mapping``
    LUT networks, XC3000 CLB merging (maximum-cardinality matching),
    two-input-gate synthesis, and baseline mappers.
``repro.arith``
    Adder and multiplier generators plus the conditional-sum-adder and
    Wallace-tree baselines of Section 6.1.
``repro.bench``
    The Table 1 / Table 2 benchmark circuits.
``repro.core``
    The high-level one-call API.

Quickstart
----------
>>> from repro.bench import benchmark
>>> from repro.core import map_to_xc3000
>>> result = map_to_xc3000(benchmark("rd73"))
>>> result.clb_count > 0
True
"""

from repro.core.api import (
    FpgaMappingResult,
    decompose_to_luts,
    map_to_xc3000,
    synthesize_two_input_gates,
)
from repro.boolfunc.spec import ISF, MultiFunction
from repro.bdd.manager import BDD
from repro.verify.equiv import check_equivalence, check_extension

__version__ = "1.0.0"

__all__ = [
    "BDD",
    "ISF",
    "MultiFunction",
    "FpgaMappingResult",
    "decompose_to_luts",
    "map_to_xc3000",
    "synthesize_two_input_gates",
    "check_equivalence",
    "check_extension",
    "__version__",
]
