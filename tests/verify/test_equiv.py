"""Tests for the formal equivalence checker."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import MultiFunction
from repro.decomp.recursive import decompose
from repro.mapping.baselines import mux_tree_map
from repro.mapping.gatelevel import to_gates
from repro.mapping.lutnet import LutNetwork
from repro.verify.equiv import (
    check_equivalence,
    check_extension,
    lut_network_bdds,
)


def random_mf(seed, n, m, dc_prob=0.0):
    rng = random.Random(seed)
    bdd = BDD(n)
    tables = []
    dc_tables = [] if dc_prob else None
    for _ in range(m):
        tables.append([rng.randint(0, 1) for _ in range(1 << n)])
        if dc_prob:
            dc_tables.append([1 if rng.random() < dc_prob else 0
                              for _ in range(1 << n)])
    return MultiFunction.from_truth_tables(bdd, list(range(n)), tables,
                                           dc_tables=dc_tables)


class TestCheckExtension:
    def test_decomposed_networks_verify(self):
        for seed in range(5):
            func = random_mf(seed, 6, 2)
            net = decompose(func, n_lut=4)
            assert check_extension(func, net)

    def test_incomplete_spec_verifies(self):
        func = random_mf(31, 6, 1, dc_prob=0.4)
        net = decompose(func, n_lut=4)
        result = check_extension(func, net)
        assert result.equivalent

    def test_detects_broken_network(self):
        func = random_mf(7, 4, 1)
        net = decompose(func, n_lut=3)
        # Sabotage: rewire the output to a constant.
        broken = LutNetwork()
        for name in net.inputs:
            broken.add_input(name)
        broken.set_output(func.output_names[0], "const0")
        result = check_extension(func, broken)
        if func.outputs[0].lo != BDD.FALSE:
            assert not result.equivalent
            assert result.failing_output == func.output_names[0]
            # The counterexample must actually expose the difference.
            cx = result.counterexample
            bits = [cx[name] for name in func.input_names]
            expected = func.eval(dict(zip(func.inputs, bits)))[0]
            assert expected == 1  # const0 misses an onset point

    def test_gate_network_supported(self):
        func = random_mf(13, 5, 1)
        lut_net = decompose(func, n_lut=3)
        gnet = to_gates(lut_net)
        assert check_extension(func, gnet)

    def test_rejects_unknown_type(self):
        func = random_mf(17, 3, 1)
        with pytest.raises(TypeError):
            check_extension(func, object())


class TestCheckEquivalence:
    def test_mux_tree_equivalent_to_completion(self):
        func = random_mf(19, 6, 2, dc_prob=0.3)
        net = mux_tree_map(func, n_lut=4)
        # The baseline maps the 0-completion exactly.
        assert check_equivalence(func, net)

    def test_counterexample_is_concrete(self):
        func = random_mf(23, 4, 1)
        other = random_mf(24, 4, 1)
        net = mux_tree_map(other, n_lut=3)
        # Give the net the right port names for comparison.
        result = check_equivalence(func, net)
        if not result.equivalent:
            cx = result.counterexample
            assert set(cx) == set(func.input_names)


class TestSymbolicSimulation:
    def test_lut_bdds_match_eval(self):
        func = random_mf(29, 5, 2)
        net = decompose(func, n_lut=3)
        bdd = func.bdd
        outs = lut_network_bdds(net, bdd,
                                dict(zip(func.input_names, func.inputs)))
        for k in range(32):
            bits = [(k >> (4 - i)) & 1 for i in range(5)]
            named = dict(zip(func.input_names, bits))
            sim = net.eval_outputs(named)
            for name in func.output_names:
                assignment = dict(zip(func.inputs, bits))
                assert bdd.eval(outs[name], assignment) == bool(sim[name])


class TestArithmeticFormal:
    def test_conditional_sum_adder_formally_correct(self):
        """The gate-level conditional-sum adder equals the symbolic
        adder specification — formally, for n = 6 (no sampling)."""
        from repro.arith.adders import adder_function, \
            conditional_sum_adder
        func = adder_function(6)
        net = conditional_sum_adder(6)
        from repro.verify.equiv import check_extension
        assert check_extension(func, net)

    def test_wallace_formally_correct(self):
        from repro.arith.multipliers import multiplier_function, \
            wallace_tree_multiplier
        from repro.verify.equiv import check_extension
        func = multiplier_function(4)
        net = wallace_tree_multiplier(4)
        assert check_extension(func, net)

    def test_decomposed_adder_formally_correct(self):
        from repro.arith.adders import adder_function
        from repro.core import synthesize_two_input_gates
        from repro.verify.equiv import check_extension
        func = adder_function(5)
        net = synthesize_two_input_gates(func)
        assert check_extension(func, net)
