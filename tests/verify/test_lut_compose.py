"""Differential tests of the LUT composition against sum-of-minterms.

``repro.bdd.ops.lut_function`` builds a LUT's function by folding its
table with ``ite``; the reference here is the sum-of-minterms loop the
verifier used before it.  Seeded random LUT networks cover 0-5 fanins,
constant tables, duplicated fanins and fanins that are other LUTs.
"""

import random

import pytest

from repro.bdd.manager import BDD
from repro.bdd.ops import lut_function
from repro.boolfunc.spec import ISF, MultiFunction
from repro.mapping.lutnet import CONST0, CONST1, LutNetwork, LutNode
from repro.verify.equiv import check_extension, lut_signal_bdds


def minterm_sum(bdd, fanins, table):
    """Reference: OR over the table's 1-rows of the row's cube."""
    k = len(fanins)
    result = BDD.FALSE
    for row, bit in enumerate(table):
        if not bit:
            continue
        term = BDD.TRUE
        for i in range(k):
            lit = fanins[i]
            if not (row >> (k - 1 - i)) & 1:
                lit = bdd.apply_not(lit)
            term = bdd.apply_and(term, lit)
        result = bdd.apply_or(result, term)
    return result


def random_table(rng, k):
    kind = rng.random()
    if kind < 0.15:
        return [0] * (1 << k)
    if kind < 0.3:
        return [1] * (1 << k)
    return [rng.randint(0, 1) for _ in range(1 << k)]


def random_fanins(rng, signals, k):
    """``k`` picks from ``signals``; about a third of the LUTs repeat
    one of their fanins."""
    picks = [rng.choice(signals) for _ in range(k)]
    if k >= 2 and rng.random() < 0.35:
        picks[rng.randrange(k)] = picks[rng.randrange(k)]
    return picks


def random_network(seed, n_inputs=6, n_luts=14, n_outputs=3):
    """A LUT network whose nodes are added as drawn (no simplification),
    so constant tables, duplicated and constant fanins all stay."""
    rng = random.Random(seed)
    net = LutNetwork()
    signals = [net.add_input(f"x{i}") for i in range(n_inputs)]
    signals += [CONST0, CONST1]
    for j in range(n_luts):
        k = rng.randint(0, 5)
        name = f"n{j}"
        net.nodes[name] = LutNode(name, random_fanins(rng, signals, k),
                                  random_table(rng, k))
        net._node_order.append(name)
        signals.append(name)
    luts = [s for s in signals if s.startswith("n")]
    for i in range(n_outputs):
        net.set_output(f"y{i}", luts[-1 - i])
    return net


def reference_signal_bdds(net, bdd, input_vars):
    values = {CONST0: BDD.FALSE, CONST1: BDD.TRUE}
    for name in net.inputs:
        values[name] = bdd.var(input_vars[name])
    for node in net.node_list():
        values[node.name] = minterm_sum(
            bdd, [values[s] for s in node.fanins], node.table)
    return values


class TestLutFunction:
    @pytest.mark.parametrize("seed", range(12))
    def test_network_signals_equal_minterm_sum(self, seed):
        net = random_network(seed)
        bdd = BDD(len(net.inputs))
        input_vars = {name: i for i, name in enumerate(net.inputs)}
        got = lut_signal_bdds(net, bdd, input_vars)
        assert got == reference_signal_bdds(net, bdd, input_vars)

    def test_every_fanin_count_and_constant_tables(self):
        rng = random.Random(5)
        bdd = BDD(8)
        pool = [bdd.var(i) for i in range(8)]
        pool += [bdd.apply_xor(pool[0], pool[5]),
                 bdd.apply_and(pool[2], pool[7]), BDD.FALSE, BDD.TRUE]
        for k in range(6):
            for table in ([0] * (1 << k), [1] * (1 << k)):
                assert lut_function(bdd, pool[:k], table) == table[0]
            for _ in range(40):
                fanins = random_fanins(rng, pool, k)
                table = random_table(rng, k)
                assert lut_function(bdd, fanins, table) \
                    == minterm_sum(bdd, fanins, table)

    def test_costs_one_ite_per_inner_table_node(self):
        bdd = BDD(5)
        fanins = [bdd.var(i) for i in range(5)]
        # The table of x4: every fold is a terminal case of ite, so the
        # counter reads the helper's own calls and no recursion.
        lut_function(bdd, fanins, [0, 1] * 16)
        assert bdd.metrics().ite_calls == (1 << 5) - 1


class TestCheckExtensionCounterexample:
    @staticmethod
    def spec_of(net, seed, dc_prob):
        """The network's own function as an ISF, with random don't
        cares around it."""
        rng = random.Random(seed)
        n = len(net.inputs)
        bdd = BDD(n)
        input_vars = {name: i for i, name in enumerate(net.inputs)}
        values = reference_signal_bdds(net, bdd, input_vars)
        outputs = []
        for sig in net.outputs.values():
            dc = bdd.from_truth_table(
                [rng.random() < dc_prob for _ in range(1 << n)],
                list(range(n)))
            f = values[sig]
            outputs.append(ISF.create(bdd, bdd.apply_diff(f, dc),
                                      bdd.apply_or(f, dc)))
        return MultiFunction(bdd, list(range(n)), outputs,
                             input_names=list(net.inputs),
                             output_names=list(net.outputs))

    def test_flipped_bit_is_found_with_a_real_counterexample(self):
        found = 0
        for seed in range(24):
            rng = random.Random(1000 + seed)
            net = random_network(seed, n_luts=10)
            func = self.spec_of(net, seed,
                                dc_prob=0.2 if seed % 2 else 0.0)
            assert check_extension(func, net)
            # Flip the row a random input reaches in a LUT that drives
            # an output.
            node = net.nodes[rng.choice(sorted(net.outputs.values()))]
            values = net.evaluate({name: rng.randint(0, 1)
                                   for name in net.inputs})
            row = 0
            for fanin in node.fanins:
                row = (row << 1) | values[fanin]
            node.table[row] ^= 1
            found += self.check_flipped(func, net)
        # Only a don't care at every input reaching that row hides it.
        assert found >= 20

    @staticmethod
    def check_flipped(func, net):
        """check_extension agrees with the reference on whether the
        network still realises the ISF; when it does not, the named
        output is the first broken one and the network really leaves
        the ISF at the counterexample.  Returns whether it broke."""
        bdd = func.bdd
        input_vars = dict(zip(func.input_names, func.inputs))
        impl = reference_signal_bdds(net, bdd, input_vars)
        broken = [name for name, isf in zip(func.output_names, func.outputs)
                  if not (bdd.leq(isf.lo, impl[net.outputs[name]])
                          and bdd.leq(impl[net.outputs[name]], isf.hi))]
        result = check_extension(func, net)
        if not broken:
            assert result.equivalent
            return False
        assert not result.equivalent
        assert result.failing_output == broken[0]
        cx = result.counterexample
        got = net.evaluate(cx)[net.outputs[result.failing_output]]
        want = func.eval({var: cx[name] for var, name
                          in zip(func.inputs, func.input_names)})
        isf_value = want[func.output_names.index(result.failing_output)]
        assert isf_value is not None and got != isf_value
        return True
