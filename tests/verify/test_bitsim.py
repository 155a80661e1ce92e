"""Tests for bit-parallel LUT-network simulation."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import MultiFunction
from repro.decomp.recursive import decompose
from repro.verify.bitsim import random_vectors, sample_check, \
    simulate_words


def build(seed, n, m):
    rng = random.Random(seed)
    bdd = BDD(n)
    tables = [[rng.randint(0, 1) for _ in range(1 << n)]
              for _ in range(m)]
    func = MultiFunction.from_truth_tables(bdd, list(range(n)), tables)
    return func, decompose(func, n_lut=4), tables


class TestSimulateWords:
    def test_matches_scalar_simulation(self):
        func, net, tables = build(701, 6, 2)
        words = random_vectors(func.input_names, 64, seed=1)
        out = simulate_words(net, words, 64)
        for t in range(64):
            named = {name: (words[name] >> t) & 1
                     for name in func.input_names}
            scalar = net.eval_outputs(named)
            for name in func.output_names:
                assert ((out[name] >> t) & 1) == scalar[name]

    def test_constants(self):
        from repro.mapping.lutnet import LutNetwork
        net = LutNetwork()
        net.add_input("a")
        net.set_output("one", "const1")
        net.set_output("zero", "const0")
        out = simulate_words(net, {"a": 0b1010}, 4)
        assert out["one"] == 0b1111
        assert out["zero"] == 0

    def test_width_masking(self):
        func, net, _ = build(703, 4, 1)
        words = {name: (1 << 70) - 1 for name in func.input_names}
        out = simulate_words(net, words, 8)
        assert out[func.output_names[0]] < (1 << 8)


class TestSampleCheck:
    def test_correct_network_passes(self):
        func, net, _ = build(709, 6, 2)
        assert sample_check(func, net, patterns=256)

    def test_broken_network_fails(self):
        from repro.mapping.lutnet import LutNetwork
        func, net, tables = build(719, 5, 1)
        broken = LutNetwork()
        for name in net.inputs:
            broken.add_input(name)
        broken.set_output(func.output_names[0], "const1")
        if 0 in tables[0]:
            assert not sample_check(func, broken, patterns=128)
