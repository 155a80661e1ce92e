"""Tests for functional reordering by rebuild."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.bdd import reorder


@pytest.fixture
def bdd():
    return BDD(6)


def interleaved_equality(bdd, pairs):
    """f = AND over pairs (a_i <-> b_i) — classic order-sensitive function."""
    f = BDD.TRUE
    for a, b in pairs:
        f = bdd.apply_and(f, bdd.apply_xnor(bdd.var(a), bdd.var(b)))
    return f


class TestRebuild:
    def test_semantics_preserved(self, bdd):
        rng = random.Random(9)
        table = [rng.randint(0, 1) for _ in range(16)]
        f = bdd.from_truth_table(table, [0, 1, 2, 3])
        [g] = reorder.rebuild(bdd, [f], [3, 2, 1, 0, 4, 5])
        assert bdd.to_truth_table(g, [0, 1, 2, 3]) == table

    def test_multiple_roots(self, bdd):
        f = bdd.apply_and(bdd.var(0), bdd.var(1))
        g = bdd.apply_xor(bdd.var(2), bdd.var(3))
        nf, ng = reorder.rebuild(bdd, [f, g], [5, 4, 3, 2, 1, 0])
        assert bdd.to_truth_table(nf, [0, 1]) == [0, 0, 0, 1]
        assert bdd.to_truth_table(ng, [2, 3]) == [0, 1, 1, 0]

    def test_order_changes_size(self, bdd):
        # (a0<->b0)&(a1<->b1)&(a2<->b2): interleaved order is linear,
        # separated order is exponential.
        f = interleaved_equality(bdd, [(0, 3), (1, 4), (2, 5)])
        [f_sep] = reorder.rebuild(bdd, [f], [0, 1, 2, 3, 4, 5])
        size_sep = bdd.node_count(f_sep)
        [f_int] = reorder.rebuild(bdd, [f_sep], [0, 3, 1, 4, 2, 5])
        size_int = bdd.node_count(f_int)
        assert size_int < size_sep
