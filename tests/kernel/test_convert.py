"""Canonicity of the BDD <-> mask conversions."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.bdd.reorder import rebuild
from repro.kernel.convert import (
    TableMismatchError,
    bdd_to_mask,
    lift_mask,
    lower_mask,
    mask_to_bdd,
)


def random_node(bdd, rng, variables):
    table = [rng.randint(0, 1) for _ in range(1 << len(variables))]
    return bdd.from_truth_table(table, variables), table


def to_mask(table):
    return sum(bit << k for k, bit in enumerate(table))


class TestBddToMask:
    def test_matches_to_truth_table(self):
        bdd = BDD(5)
        rng = random.Random(1)
        variables = [0, 1, 2, 3, 4]
        f, table = random_node(bdd, rng, variables)
        assert bdd_to_mask(bdd, f, variables) == to_mask(table)
        assert bdd.to_truth_table(f, variables) == table

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_layouts(self, seed):
        # Non-level layouts take the selector-blend path.
        bdd = BDD(6)
        rng = random.Random(seed)
        f, _ = random_node(bdd, rng, list(range(6)))
        for _ in range(5):
            layout = list(range(6))
            rng.shuffle(layout)
            assert bdd_to_mask(bdd, f, layout) == \
                to_mask(bdd.to_truth_table(f, layout))

    @pytest.mark.parametrize("layout", [[0, 1, 2, 3], [3, 0, 2, 1]])
    def test_variables_superset_of_support(self, layout):
        bdd = BDD(4)
        f = bdd.apply_and(bdd.var(1), bdd.var(3))
        assert bdd_to_mask(bdd, f, layout) == \
            to_mask(bdd.to_truth_table(f, layout))

    def test_rejects_uncovered_support(self):
        bdd = BDD(3)
        f = bdd.apply_or(bdd.var(0), bdd.var(2))
        with pytest.raises(TableMismatchError):
            bdd_to_mask(bdd, f, [0, 1])

    def test_terminals(self):
        bdd = BDD(3)
        assert bdd_to_mask(bdd, BDD.FALSE, [0, 1]) == 0
        assert bdd_to_mask(bdd, BDD.TRUE, [0, 1]) == 0b1111
        assert bdd_to_mask(bdd, BDD.TRUE, []) == 1

    def test_cached(self):
        bdd = BDD(3)
        f = bdd.apply_xor(bdd.var(0), bdd.var(2))
        a = bdd_to_mask(bdd, f, (0, 1, 2))
        assert bdd._kernel_cache[(f, (0, 1, 2))] == a
        assert bdd_to_mask(bdd, f, [0, 1, 2]) == a


class TestMaskToBdd:
    def test_canonical_node_ids(self):
        bdd = BDD(5)
        rng = random.Random(3)
        variables = [0, 1, 2, 3, 4]
        for _ in range(10):
            table = [rng.randint(0, 1) for _ in range(32)]
            ref = bdd.from_truth_table(table, variables)
            assert mask_to_bdd(bdd, to_mask(table), variables) == ref

    def test_roundtrip(self):
        bdd = BDD(4)
        rng = random.Random(4)
        f, _ = random_node(bdd, rng, [0, 1, 2, 3])
        mask = bdd_to_mask(bdd, f, [0, 1, 2, 3])
        assert mask_to_bdd(bdd, mask, [0, 1, 2, 3]) == f

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_layouts(self, seed):
        # Non-level layouts split through split_int.
        bdd = BDD(6)
        rng = random.Random(10 + seed)
        for _ in range(5):
            layout = list(range(6))
            rng.shuffle(layout)
            table = [rng.randint(0, 1) for _ in range(64)]
            ref = bdd.from_truth_table(table, layout)
            assert mask_to_bdd(bdd, to_mask(table), layout) == ref
            assert bdd_to_mask(bdd, ref, layout) == to_mask(table)

    def test_superset_domain(self):
        bdd = BDD(5)
        f = bdd.apply_xor(bdd.var(1), bdd.var(4))
        for layout in ([0, 1, 2, 3, 4], [4, 2, 1, 0, 3]):
            mask = to_mask(bdd.to_truth_table(f, layout))
            assert mask_to_bdd(bdd, mask, layout) == f

    def test_wide_table_roundtrip(self):
        bdd = BDD(12)
        rng = random.Random(6)
        variables = list(range(12))
        table = [rng.randint(0, 1) for _ in range(1 << 12)]
        f = mask_to_bdd(bdd, to_mask(table), variables)
        assert f == bdd.from_truth_table(table, variables)
        assert bdd_to_mask(bdd, f, variables) == to_mask(table)

    def test_terminals(self):
        bdd = BDD(2)
        assert mask_to_bdd(bdd, 0, [0, 1]) == BDD.FALSE
        assert mask_to_bdd(bdd, 0b1111, [0, 1]) == BDD.TRUE
        assert mask_to_bdd(bdd, 1, []) == BDD.TRUE

    def test_rejects_wide_mask(self):
        bdd = BDD(3)
        with pytest.raises(ValueError):
            mask_to_bdd(bdd, 1 << 4, [0, 1])
        with pytest.raises(ValueError):
            mask_to_bdd(bdd, -1, [0, 1])


class TestLiftLower:
    def test_unchanged_mask_lowers_to_the_lifted_node(self):
        bdd = BDD(4)
        rng = random.Random(8)
        f, _ = random_node(bdd, rng, [0, 1, 2, 3])
        mask = lift_mask(bdd, f, (3, 1, 0, 2))
        assert bdd._kernel_cache[("node", (3, 1, 0, 2), mask)] == f
        assert lower_mask(bdd, mask, (3, 1, 0, 2)) == f

    def test_new_mask_lowers_canonically(self):
        bdd = BDD(3)
        table = [0, 1, 1, 0, 1, 0, 0, 1]
        node = lower_mask(bdd, to_mask(table), (2, 0, 1))
        assert node == bdd.from_truth_table(table, [2, 0, 1])


class TestCacheInvalidation:
    def test_set_order_clears_kernel_cache(self):
        bdd = BDD(3)
        f = bdd.apply_or(bdd.var(0), bdd.var(1))
        bdd_to_mask(bdd, f, (0, 1, 2))
        assert bdd._kernel_cache
        bdd.set_order([2, 1, 0])
        assert not bdd._kernel_cache

    def test_conversion_correct_after_reorder(self):
        bdd = BDD(3)
        f = bdd.apply_or(bdd.apply_and(bdd.var(0), bdd.var(1)), bdd.var(2))
        before = bdd_to_mask(bdd, f, (0, 1, 2))
        [f2] = rebuild(bdd, [f], [1, 2, 0])
        assert bdd_to_mask(bdd, f2, (0, 1, 2)) == before
        # Level order is now (1, 2, 0): both methods, both directions.
        assert bdd_to_mask(bdd, f2, (1, 2, 0)) == \
            to_mask(bdd.to_truth_table(f2, (1, 2, 0)))
        assert mask_to_bdd(bdd, before, (0, 1, 2)) == f2
        assert mask_to_bdd(bdd, bdd_to_mask(bdd, f2, (1, 2, 0)),
                           (1, 2, 0)) == f2
