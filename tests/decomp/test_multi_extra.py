"""Additional tests for the common-alpha selection heuristics."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.compat import classes_for
from repro.decomp.multi import (
    _class_masks,
    _encode_within_groups,
    _refine_groups,
    select_common_alphas,
    total_alpha_count,
)


def _ones(values):
    """Class values as the bitmask ``_refine_groups`` takes."""
    return sum(bit << c for c, bit in enumerate(values))


class TestRefineGroups:
    def test_split(self):
        groups = [[0, 1, 2], [3, 4]]
        values = [0, 1, 0, 1, 1]
        refined = _refine_groups(groups, _ones(values))
        assert [0, 2] in refined
        assert [1] in refined
        assert [3, 4] in refined

    def test_no_split(self):
        groups = [[0, 1]]
        assert _refine_groups(groups, _ones([1, 1])) == [[0, 1]]


class TestSharedParityCase:
    def test_xor_family_shares_alphas(self):
        # All outputs are XORs of the same bound parity with different
        # free-variable functions: identical partitions -> one shared
        # alpha suffices for every output.
        bdd = BDD(6)
        parity = bdd.apply_xor(
            bdd.apply_xor(bdd.var(0), bdd.var(1)), bdd.var(2))
        outputs = []
        for free in (3, 4, 5):
            outputs.append(ISF.complete(
                bdd.apply_xor(parity, bdd.var(free))))
        bound = [0, 1, 2]
        per_out = [classes_for(bdd, [o], bound) for o in outputs]
        pool, encodings = select_common_alphas(bdd, per_out)
        assert total_alpha_count(encodings) == 1
        for enc in encodings:
            assert enc.r == 1

    def test_disjoint_partitions_do_not_share(self):
        # Output A splits by x0, output B by x1: two distinct alphas.
        bdd = BDD(4)
        a = ISF.complete(bdd.apply_and(bdd.var(0), bdd.var(2)))
        b = ISF.complete(bdd.apply_and(bdd.var(1), bdd.var(3)))
        bound = [0, 1]
        per_out = [classes_for(bdd, [o], bound) for o in (a, b)]
        pool, encodings = select_common_alphas(bdd, per_out)
        assert total_alpha_count(encodings) == 2


class TestEncodeWithinGroups:
    def test_bits_give_injective_in_group(self):
        bdd = BDD(4)
        rng = random.Random(433)
        table = [rng.randint(0, 1) for _ in range(16)]
        isf = ISF.complete(bdd.from_truth_table(table, [0, 1, 2, 3]))
        cls = classes_for(bdd, [isf], [0, 1])
        groups = [list(range(cls.ncc))]
        bits = max(1, (cls.ncc - 1).bit_length())
        alphas = _encode_within_groups(4, _class_masks(cls), groups, bits)
        codes = set()
        for c in range(cls.ncc):
            rep = cls.classes[c][0]
            codes.add(tuple(a >> rep & 1 for a in alphas))
        assert len(codes) == cls.ncc
