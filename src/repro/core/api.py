"""High-level API: one-call flows matching the paper's experiments.

Typical usage::

    from repro import core, boolfunc
    func = boolfunc.parse_pla(open("adder.pla").read())
    result = core.map_to_xc3000(func)            # the paper's mulop-dc
    print(result.clb_count, result.lut_count)

    baseline = core.map_to_xc3000(func, use_dontcares=False)   # mulopII
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.boolfunc.spec import MultiFunction
from repro.decomp.recursive import DecompositionEngine, DecompositionStats
from repro.mapping.clb import (
    EXACT_MATCHING_LIMIT,
    merge_luts_indexed,
    merge_luts_xc3000,
)
from repro.mapping.gatelevel import GateNetwork, gate_synthesize
from repro.mapping.lutnet import LutNetwork


@dataclass
class FpgaMappingResult:
    """Outcome of an FPGA mapping run."""

    network: LutNetwork
    lut_count: int
    clb_count: int
    depth: int
    clbs: List[Tuple[str, ...]]
    stats: DecompositionStats

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.lut_count} LUTs, {self.clb_count} CLBs, "
                f"depth {self.depth} "
                f"({self.stats.decomposition_steps} decomposition steps, "
                f"{self.stats.shannon_steps} Shannon steps, "
                f"{self.stats.alphas_shared} alphas saved by sharing)")

    def to_record(self) -> dict:
        """JSON-able record of the run: counts, the mapped network as
        BLIF text, and the engine counters.  This is what the runtime
        layer ships between processes and persists in the result cache
        (the live network/BDD objects do not cross process boundaries).
        """
        return {
            "lut_count": self.lut_count,
            "clb_count": self.clb_count,
            "depth": self.depth,
            "blif": self.network.to_blif(),
            "engine": {
                "decomposition_steps": self.stats.decomposition_steps,
                "shannon_steps": self.stats.shannon_steps,
                "alphas_created": self.stats.alphas_created,
                "alphas_shared": self.stats.alphas_shared,
                "max_recursion_depth": self.stats.max_recursion_depth,
                "budget_exhausted": self.stats.budget_exhausted,
                "quarantined_outputs": list(
                    self.stats.quarantined_outputs),
            },
        }


def decompose_to_luts(func: MultiFunction, n_lut: int = 5,
                      use_dontcares: bool = True,
                      **engine_kwargs) -> LutNetwork:
    """Recursive multi-output decomposition into ``n_lut``-input LUTs.

    ``use_dontcares=True`` runs the paper's ``mulop-dc`` (three-step
    don't-care assignment); ``False`` runs the ``mulopII`` baseline.
    """
    engine = DecompositionEngine(n_lut=n_lut,
                                 use_dontcares=use_dontcares,
                                 **engine_kwargs)
    return engine.run(func)


def map_to_xc3000(func: MultiFunction, use_dontcares: bool = True,
                  submemo_store: object = None,
                  **engine_kwargs) -> FpgaMappingResult:
    """The paper's full XC3000 flow: decompose to 5-input LUTs, then
    merge LUT pairs into CLBs by maximum-cardinality matching.

    ``submemo_store`` is accepted and ignored: perfbench is its only
    reader (see :mod:`repro.decomp.submemo`)."""
    engine = DecompositionEngine(n_lut=5, use_dontcares=use_dontcares,
                                 **engine_kwargs)
    net = engine.run(func)
    if net.lut_count > EXACT_MATCHING_LIMIT:
        clbs = merge_luts_indexed(net)  # the exact matching is cubic
    else:
        clbs = merge_luts_xc3000(net)
    return FpgaMappingResult(
        network=net,
        lut_count=net.lut_count,
        clb_count=len(clbs),
        depth=net.depth(),
        clbs=clbs,
        stats=engine.stats,
    )


def synthesize_two_input_gates(func: MultiFunction,
                               use_dontcares: bool = True,
                               **engine_kwargs) -> GateNetwork:
    """The paper's gate-level flow (Figures 2/3): balanced decomposition
    to 3-input blocks, then minimal two-input-gate trees per block."""
    return gate_synthesize(func, use_dontcares=use_dontcares,
                           **engine_kwargs)
