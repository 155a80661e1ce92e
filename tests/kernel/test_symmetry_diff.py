"""Differential tests: kernel symmetry ops == BDD symmetry ops."""

import itertools
import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.recursive import DecompositionEngine
from repro.kernel import STATS, reset_kernel_stats
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
            domain = bits_domain(bdd, [isf], "test")
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
        kops, (f,) = bits_domain(bdd, [isf], "test")
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


def isf_pairs(isfs):
    return [(isf.lo, isf.hi) for isf in isfs]


def test_disjoint_wide_bundle_served_per_output(monkeypatch):
    """Three outputs over disjoint 12/13/14-variable supports: the
    union (39 variables) is far past the cap, yet every handle is laid
    out over its own support, so the symmetry ops run on the kernel
    without a miss, node for node equal to the BDD path."""
    rng = random.Random(89)
    bdd = BDD(39)
    supports = [list(range(0, 12)), list(range(12, 25)),
                list(range(25, 39))]
    outputs = [random_isf(bdd, rng, support, 0.3) for support in supports]
    assert all(isf.support(bdd) == set(support)
               for isf, support in zip(outputs, supports))
    union = list(range(39))
    engine = DecompositionEngine()

    def run():
        reset_kernel_stats()
        multi = assign_for_symmetry_multi(bdd, outputs, union,
                                          max_pair_checks=600)
        groups = [isf_symmetry_groups(bdd, isf, union, kind)
                  for isf in outputs for kind in KINDS]
        common = engine._common_groups(bdd, outputs, union)
        return isf_pairs(multi[0]), multi[1], groups, common

    monkeypatch.setenv("REPRO_KERNEL", "off")
    ref = run()
    monkeypatch.setenv("REPRO_KERNEL", "on")
    hit = run()
    assert STATS.misses == 0
    assert STATS.op_hits["symmetry_assign"] == 1
    assert STATS.op_hits["symmetry_groups"] == 2 * len(outputs) + 1
    assert hit == ref


class TestWidening:
    """A pair with one variable outside a handle's support: the merge
    makes the result depend on that variable."""

    def make_outputs(self, bdd):
        # x0 is removable from the first output (its cofactor intervals
        # on x0 intersect), x1 from the second, and neither output
        # depends on the other's variable.
        x = [bdd.var(v) for v in range(5)]
        first = ISF.create(bdd, bdd.apply_and(x[0], x[2]),
                           bdd.apply_or(x[2], x[3]))
        second = ISF.create(bdd, bdd.apply_and(x[1], x[4]),
                            bdd.apply_or(x[4], x[3]))
        return [first, second]

    @pytest.mark.parametrize("kind", KINDS)
    def test_make_symmetric_one_outside(self, kind, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "on")
        bdd = BDD(5)
        first, _ = self.make_outputs(bdd)
        kops, (f,) = bits_domain(bdd, [first], "test")
        bops = BddIsfOps(bdd)
        for i, j in ((0, 1), (1, 0), (1, 4)):
            assert kops.strongly_symmetric(f, i, j, kind) == \
                bops.strongly_symmetric(first, i, j, kind)
            assert kops.potentially_symmetric(f, i, j, kind) == \
                bops.potentially_symmetric(first, i, j, kind)
        for i, j in ((0, 1), (1, 0)):
            m_k = kops.lower(kops.make_symmetric(f, i, j, kind))
            m_b = bops.make_symmetric(first, i, j, kind)
            assert (m_k.lo, m_k.hi) == (m_b.lo, m_b.hi)
            assert 1 in m_b.support(bdd)
        # Both variables outside: the handle comes back unchanged.
        assert kops.make_symmetric(f, 1, 4, kind) is f

    @pytest.mark.parametrize("kind", KINDS)
    def test_multi_merges_across_outputs(self, kind, monkeypatch):
        # Phase 1 merges (x0, x1) in both outputs, widening each handle
        # by the other output's variable; phase 2 then runs `kind`.
        bdd = BDD(5)
        outputs = self.make_outputs(bdd)
        variables = list(range(5))
        monkeypatch.setenv("REPRO_KERNEL", "off")
        ref = assign_for_symmetry_multi(bdd, outputs, variables, (kind,))
        monkeypatch.setenv("REPRO_KERNEL", "on")
        reset_kernel_stats()
        hit = assign_for_symmetry_multi(bdd, outputs, variables, (kind,))
        assert STATS.op_hits["symmetry_assign"] == 1
        assert any({0, 1} <= set(group) for group in ref[1])
        if kind is SymmetryKind.NONEQUIVALENCE:
            # A T2 phase 2 also merges the (0, 0) and (1, 1) cofactors,
            # which drops x0 and x1 again.
            assert 1 in ref[0][0].support(bdd)
        assert isf_pairs(hit[0]) == isf_pairs(ref[0])
        assert hit[1] == ref[1]
