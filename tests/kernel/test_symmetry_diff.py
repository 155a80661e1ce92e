"""Differential tests: kernel symmetry ops == BDD symmetry ops."""

import itertools
import random

import pytest

from repro import kernel
from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.kernel.symmetry import bits_domain
from repro.symmetry.groups import (
    assign_for_symmetry,
    assign_for_symmetry_multi,
    isf_symmetry_groups,
)
from repro.symmetry.isf_symmetry import BddIsfOps, SymmetryKind

KINDS = (SymmetryKind.NONEQUIVALENCE, SymmetryKind.EQUIVALENCE)


def random_isf(bdd, rng, variables, dc_density):
    lo_bits, hi_bits = [], []
    for _ in range(1 << len(variables)):
        if rng.random() < dc_density:
            lo_bits.append(0)
            hi_bits.append(1)
        else:
            bit = rng.randint(0, 1)
            lo_bits.append(bit)
            hi_bits.append(bit)
    return ISF.create(bdd,
                      bdd.from_truth_table(lo_bits, variables),
                      bdd.from_truth_table(hi_bits, variables))


def symmetric_isf(bdd, rng, variables, pair, dc_density):
    """An ISF built symmetric in ``pair`` (so strong checks hit True)."""
    i, j = pair
    lo_bits, hi_bits = [], []
    n = len(variables)
    seen = {}
    for k in range(1 << n):
        bits = [(k >> (n - 1 - a)) & 1 for a in range(n)]
        key_bits = list(bits)
        # Canonicalise the pair (sorted values) => symmetric table.
        key_bits[i], key_bits[j] = sorted((bits[i], bits[j]))
        key = tuple(key_bits)
        if key not in seen:
            if rng.random() < dc_density:
                seen[key] = (0, 1)
            else:
                bit = rng.randint(0, 1)
                seen[key] = (bit, bit)
        lo_bits.append(seen[key][0])
        hi_bits.append(seen[key][1])
    return ISF.create(bdd,
                      bdd.from_truth_table(lo_bits, variables),
                      bdd.from_truth_table(hi_bits, variables))


class TestOpsDifferential:
    @pytest.mark.parametrize("density", [0.0, 0.3, 0.8])
    def test_predicates_and_narrowing(self, density, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "on")
        rng = random.Random(int(density * 10) + 3)
        bdd = BDD(5)
        variables = list(range(5))
        bops = BddIsfOps(bdd)
        for trial in range(4):
            if trial % 2:
                isf = symmetric_isf(bdd, rng, variables, (1, 3), density)
            else:
                isf = random_isf(bdd, rng, variables, density)
            domain = bits_domain(bdd, [isf], variables, "test")
            assert domain is not None
            kops, (f,) = domain
            assert kops.support(f) == isf.support(bdd)
            lowered = kops.lower(f)
            assert (lowered.lo, lowered.hi) == (isf.lo, isf.hi)
            for kind in KINDS:
                for i, j in itertools.combinations(variables, 2):
                    assert kops.strongly_symmetric(f, i, j, kind) == \
                        bops.strongly_symmetric(isf, i, j, kind), \
                        (kind, i, j)
                    pot_k = kops.potentially_symmetric(f, i, j, kind)
                    assert pot_k == \
                        bops.potentially_symmetric(isf, i, j, kind), \
                        (kind, i, j)
                    if pot_k:
                        m_k = kops.lower(
                            kops.make_symmetric(f, i, j, kind))
                        m_b = bops.make_symmetric(isf, i, j, kind)
                        assert (m_k.lo, m_k.hi) == (m_b.lo, m_b.hi)
                    else:
                        with pytest.raises(ValueError):
                            kops.make_symmetric(f, i, j, kind)

    def test_pair_order_irrelevant(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "on")
        rng = random.Random(77)
        bdd = BDD(4)
        variables = list(range(4))
        isf = random_isf(bdd, rng, variables, 0.4)
        kops, (f,) = bits_domain(bdd, [isf], variables, "test")
        for kind in KINDS:
            for i, j in itertools.combinations(variables, 2):
                assert kops.strongly_symmetric(f, i, j, kind) == \
                    kops.strongly_symmetric(f, j, i, kind)
                assert kops.potentially_symmetric(f, i, j, kind) == \
                    kops.potentially_symmetric(f, j, i, kind)


class TestWrapperDifferential:
    def run_both(self, monkeypatch, fn):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        ref = fn()
        monkeypatch.setenv("REPRO_KERNEL", "on")
        # Defeat the measured crossover: these supports are far below
        # the default symmetry minimum, and the point here is the
        # kernel-vs-BDD differential, not the dispatch policy.
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "SYMMETRY_MIN_VARS", 0)
            hit = fn()
        return ref, hit

    @pytest.mark.parametrize("density", [0.0, 0.4])
    def test_isf_symmetry_groups(self, density, monkeypatch):
        rng = random.Random(int(density * 10) + 5)
        bdd = BDD(5)
        variables = list(range(5))
        for trial in range(3):
            isf = symmetric_isf(bdd, rng, variables, (0, 2), density)
            for kind in KINDS:
                ref, hit = self.run_both(
                    monkeypatch,
                    lambda: isf_symmetry_groups(bdd, isf, variables, kind))
                assert hit == ref

    @pytest.mark.parametrize("density", [0.3, 0.7])
    def test_assign_for_symmetry(self, density, monkeypatch):
        rng = random.Random(int(density * 10) + 17)
        bdd = BDD(5)
        variables = list(range(5))
        for trial in range(3):
            isf = random_isf(bdd, rng, variables, density)
            ref, hit = self.run_both(
                monkeypatch,
                lambda: assign_for_symmetry(bdd, isf, variables))
            assert (hit[0].lo, hit[0].hi) == (ref[0].lo, ref[0].hi)
            assert hit[1] == ref[1]
            assert hit[0].refines(bdd, isf)

    @pytest.mark.parametrize("density", [0.3, 0.7])
    def test_assign_for_symmetry_multi(self, density, monkeypatch):
        rng = random.Random(int(density * 10) + 23)
        bdd = BDD(5)
        variables = list(range(5))
        for trial in range(3):
            outputs = [random_isf(bdd, rng, variables, density)
                       for _ in range(2)]
            ref, hit = self.run_both(
                monkeypatch,
                lambda: assign_for_symmetry_multi(bdd, outputs, variables))
            assert [(i.lo, i.hi) for i in hit[0]] == \
                [(i.lo, i.hi) for i in ref[0]]
            assert hit[1] == ref[1]
