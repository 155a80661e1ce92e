"""BDD-based combinational equivalence checking.

The implementation network is symbolically simulated: every signal gets
a BDD over the specification's input variables, built in topological
order.  The check against an incompletely specified specification is
*extension containment*: for every output, ``lo <= impl <= hi``.  A
failing check produces a concrete counterexample input assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bdd.manager import BDD
from repro.bdd.ops import lut_function
from repro.boolfunc.spec import MultiFunction
from repro.mapping.gatelevel import GateNetwork
from repro.mapping.lutnet import CONST0, CONST1, LutNetwork
from repro.obs.profiler import pulse


@dataclass
class EquivResult:
    """Outcome of an equivalence/extension check."""

    equivalent: bool
    #: Name of the first differing output (None when equivalent).
    failing_output: Optional[str] = None
    #: A concrete input assignment exposing the difference
    #: (input name -> 0/1), None when equivalent.
    counterexample: Optional[Dict[str, int]] = None

    def __bool__(self) -> bool:
        return self.equivalent


def lut_signal_bdds(net: LutNetwork, bdd: BDD,
                    input_vars: Dict[str, int]) -> Dict[str, int]:
    """Symbolic simulation of a LUT network, all signals.

    ``input_vars`` maps the network's primary input names to BDD
    variables.  Returns a BDD per *signal* name (inputs, every internal
    LUT node and the constants) — the per-output view is
    :func:`lut_network_bdds`; the engine's quarantine verification uses
    this form to check a single output's cone without requiring the
    network's outputs to be bound yet.
    """
    values: Dict[str, int] = {CONST0: BDD.FALSE, CONST1: BDD.TRUE}
    for name in net.inputs:
        values[name] = bdd.var(input_vars[name])
    for node in net.node_list():
        pulse()  # liveness: long simulations still beat per node
        # The node function, by Shannon expansion over the table.
        values[node.name] = lut_function(
            bdd, [values[s] for s in node.fanins], node.table)
    return values


def lut_network_bdds(net: LutNetwork, bdd: BDD,
                     input_vars: Dict[str, int]) -> Dict[str, int]:
    """Symbolic simulation of a LUT network.

    ``input_vars`` maps the network's primary input names to BDD
    variables.  Returns a BDD per primary output name.
    """
    values = lut_signal_bdds(net, bdd, input_vars)
    return {out: values[sig] for out, sig in net.outputs.items()}


def gate_network_bdds(net: GateNetwork, bdd: BDD,
                      input_vars: Dict[str, int]) -> Dict[str, int]:
    """Symbolic simulation of a two-input gate network."""
    values: Dict[str, int] = {CONST0: BDD.FALSE, CONST1: BDD.TRUE}
    for name in net.inputs:
        values[name] = bdd.var(input_vars[name])

    def resolve(signal: str, neg: bool) -> int:
        node = values[signal]
        return bdd.apply_not(node) if neg else node

    for name in net._order:  # topological creation order
        pulse()  # liveness: long simulations still beat per gate
        gate = net.gates[name]
        (sa, na), (sb, nb) = gate.fanins
        a = resolve(sa, na)
        b = resolve(sb, nb)
        if gate.op == "and":
            values[name] = bdd.apply_and(a, b)
        elif gate.op == "or":
            values[name] = bdd.apply_or(a, b)
        else:
            values[name] = bdd.apply_xor(a, b)
    return {out: resolve(sig, neg)
            for out, (sig, neg) in net.outputs.items()}


def _counterexample(bdd: BDD, diff: int,
                    func: MultiFunction) -> Dict[str, int]:
    model = bdd.pick(diff) or {}
    full = {}
    for var, name in zip(func.inputs, func.input_names):
        full[name] = model.get(var, 0)
    return full


def check_extension(func: MultiFunction, net) -> EquivResult:
    """Does the network realise an extension of every output's ISF?

    Exact (BDD-based).  For completely specified functions this is plain
    equivalence.  Accepts LUT and gate networks.
    """
    bdd = func.bdd
    input_vars = dict(zip(func.input_names, func.inputs))
    if isinstance(net, LutNetwork):
        impl = lut_network_bdds(net, bdd, input_vars)
    elif isinstance(net, GateNetwork):
        impl = gate_network_bdds(net, bdd, input_vars)
    else:
        raise TypeError(f"unsupported network type {type(net)!r}")
    for name, isf in zip(func.output_names, func.outputs):
        g = impl[name]
        # Violations: onset not covered, or offset wrongly covered.
        for below, above in ((isf.lo, g), (g, isf.hi)):
            if not bdd.leq(below, above):
                diff = bdd.apply_diff(below, above)
                return EquivResult(False, name,
                                   _counterexample(bdd, diff, func))
    return EquivResult(True)


def check_equivalence(func: MultiFunction, net) -> EquivResult:
    """Strict equivalence against the 0-completion of the specification.

    Use :func:`check_extension` when don't cares should be permissive.
    """
    completed = func.completed_lo()
    return check_extension(completed, net)
