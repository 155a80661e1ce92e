"""Mask-space composition functions equal the BDD reference.

``build_composition_for_output`` lowers a kernel-built class set's
merged masks once, as one table over the alpha variables and the
output's free variables, instead of OR-ing ``cube AND merged`` per code
through ``ite``.  These tests pin the lowered ISF node for node equal to
the ``ite`` route, run on a plain ``Classes`` built from the same
``LazyClasses.merged``, across DC densities, for per-output and joint
class sets, with ``r = 0`` and with unused codes.
"""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.compat import Classes, LazyClasses, classes_for
from repro.decomp.encoding import OutputEncoding, build_composition_for_output
from repro.decomp.multi import select_common_alphas
from repro.kernel import STATS, reset_kernel_stats

from tests.kernel.test_compat_diff import random_isf


def ite_reference(bdd, encoding, output_index, alpha_vars):
    """The ``ite`` route on a plain ``Classes`` with the same merged
    intervals, codes and alphas."""
    lazy = encoding.classes
    plain = Classes(lazy.bound, lazy.classes, lazy.class_of, lazy.merged)
    return build_composition_for_output(
        bdd, OutputEncoding(plain, encoding.alpha_indices, encoding.codes),
        output_index, alpha_vars)


def assert_routes_agree(bdd, classes, outputs):
    """Encode ``classes`` alone and compare both routes on each of its
    outputs.  Returns the encoding's ``(r, unused codes)``."""
    assert isinstance(classes, LazyClasses)
    pool, (enc,) = select_common_alphas(bdd, [classes])
    alpha_vars = {i: bdd.add_var() for i in enc.alpha_indices}
    for k in range(outputs):
        reset_kernel_stats()
        got = build_composition_for_output(bdd, enc, k, alpha_vars)
        assert STATS.op_hits == {"composition": 1}
        ref = ite_reference(bdd, enc, k, alpha_vars)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
    return enc.r, (1 << enc.r) - classes.ncc


@pytest.mark.parametrize("density", [0.0, 0.3, 0.7])
def test_mask_route_equals_ite_route(density, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(int(density * 10) + 4242)
    seen_unused = False
    for trial in range(12):
        nvars = rng.randint(4, 7)
        bdd = BDD(nvars)
        variables = list(range(nvars))
        outputs = [random_isf(bdd, rng, variables, density)
                   for _ in range(2)]
        bound = tuple(rng.sample(variables, rng.randint(2, 3)))
        for isf in outputs:
            _, unused = assert_routes_agree(
                bdd, classes_for(bdd, [isf], bound), 1)
            seen_unused |= unused > 0
        assert_routes_agree(bdd, classes_for(bdd, outputs, bound), 2)
    assert seen_unused


@pytest.mark.parametrize("density", [0.0, 0.3, 0.7])
def test_zero_alphas_and_unused_codes(density, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(int(density * 10) + 77)
    bdd = BDD(5)
    variables = list(range(5))
    # Independent of the bound: one class, r = 0.
    free_only = random_isf(bdd, rng, [3, 4], density)
    r, _ = assert_routes_agree(bdd, classes_for(bdd, [free_only],
                                                (0, 1)), 1)
    assert r == 0
    # At least two of three inputs: three classes, one unused code.
    majority = [1 if bin(k).count("1") >= 2 else 0 for k in range(8)]
    complete = bdd.from_truth_table(majority, [0, 1, 2])
    r, unused = assert_routes_agree(
        bdd, classes_for(bdd, [ISF.complete(complete)], (0, 1)), 1)
    assert (r, unused) == (2, 1)
    # The same with don't cares over the free variables.
    dc = random_isf(bdd, rng, variables, density)
    narrowed = ISF.create(bdd, bdd.apply_and(complete, dc.lo),
                          bdd.apply_or(complete, dc.hi))
    assert_routes_agree(bdd, classes_for(bdd, [narrowed], (0, 1)), 1)
