"""Mask primitives vs pure-Python references of the packed layout."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import pack64, unpack64
from repro.kernel.bitset import sel0, split_int
from repro.kernel.convert import bdd_to_mask, mask_to_bdd


def random_table(rng, nbits):
    return [rng.randint(0, 1) for _ in range(nbits)]


def reference_split(mask, nbits, stride):
    """Cofactor halves by string slicing: the ``stride``-bit blocks at
    even (variable 0) and odd (variable 1) block positions."""
    bits = format(mask, f"0{nbits}b")[::-1]  # bits[k] = entry k
    lo = "".join(bits[i:i + stride] for i in range(0, nbits, 2 * stride))
    hi = "".join(bits[i + stride:i + 2 * stride]
                 for i in range(0, nbits, 2 * stride))
    return int(lo[::-1], 2), int(hi[::-1], 2)


class TestPack64Reference:
    @pytest.mark.parametrize("nbits", [1, 8, 64, 128, 1024])
    def test_mask_matches_pack64(self, nbits):
        # A mask read 64 bits at a time is the pack64 word list.
        rng = random.Random(nbits)
        table = random_table(rng, nbits)
        nvars = nbits.bit_length() - 1
        bdd = BDD(nvars)
        f = bdd.from_truth_table(table, list(range(nvars)))
        mask = bdd_to_mask(bdd, f, range(nvars))
        assert mask == sum(w << (64 * i)
                           for i, w in enumerate(pack64(table)))

    def test_unpack_roundtrip(self):
        rng = random.Random(5)
        table = random_table(rng, 300)
        assert unpack64(pack64(table), 300) == table

    def test_unpack64_rejects_overflow(self):
        with pytest.raises(ValueError):
            unpack64([0], 65)


class TestMaskIntegers:
    @pytest.mark.parametrize("nbits", [1, 8, 64])
    def test_pack64_mask_to_bdd(self, nbits):
        # pack64 words joined into one int are a mask the kernel reads
        # back as the row's canonical BDD node.
        rng = random.Random(nbits + 1)
        nvars = nbits.bit_length() - 1
        variables = list(range(nvars))
        bdd = BDD(nvars)
        for _ in range(4):
            row = random_table(rng, nbits)
            mask = sum(w << (64 * i) for i, w in enumerate(pack64(row)))
            node = mask_to_bdd(bdd, mask, variables)
            assert node == bdd.from_truth_table(row, variables)
            assert bdd.to_truth_table(node, variables) == row


class TestSplitInt:
    @pytest.mark.parametrize("nvars", range(1, 17))
    def test_matches_reference_at_every_stride(self, nvars):
        # Every (nbits, stride) pair up to 2**16 bits: the top-variable,
        # sub-byte, one-to-eight-byte and multi-word block branches.
        rng = random.Random(nvars)
        nbits = 1 << nvars
        for axis in range(nvars):
            stride = 1 << axis
            for mask in (rng.getrandbits(nbits), (1 << nbits) - 1, 0):
                assert split_int(mask, nbits, stride) == \
                    reference_split(mask, nbits, stride), (nbits, stride)

    def test_halves_are_cofactor_tables(self):
        # Splitting off variable a of a 4-variable table yields the
        # tables of the cofactors over the other three, in order.
        rng = random.Random(9)
        table = random_table(rng, 16)
        mask = sum(bit << k for k, bit in enumerate(table))
        for axis in range(4):
            stride = 1 << (3 - axis)
            lo, hi = split_int(mask, 16, stride)
            for value, half in ((0, lo), (1, hi)):
                want = [table[k] for k in range(16)
                        if (k >> (3 - axis)) & 1 == value]
                assert [(half >> j) & 1 for j in range(8)] == want


class TestSelectors:
    @pytest.mark.parametrize("nvars", [1, 4, 9])
    def test_sel0_selects_variable_zero_entries(self, nvars):
        for axis in range(nvars):
            sel = sel0(nvars, axis)
            want = sum(1 << k for k in range(1 << nvars)
                       if not (k >> (nvars - 1 - axis)) & 1)
            assert sel == want
