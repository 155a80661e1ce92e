"""Differential tests: kernel compatible-class pipeline == BDD path.

The kernel must be *bit-identical*: same classes, same vertex
assignment, same merged-interval node ids, across DC densities and on
either side of the support threshold.  Step 3's per-output classes,
which the kernel covers straight from step 2's merged masks without
building the narrowed outputs, must equal the classes of the outputs
the BDD path narrows.
"""

import random

import pytest

from repro import kernel
from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.bound_set import reduction_score
from repro.decomp.compat import (
    LazyClasses,
    _intersect_vectors,
    assign_by_classes,
    classes_for,
    vertex_cofactors,
)
from repro.decomp.dontcare import (
    assign_step2_sharing,
    assign_step3_single,
    dc_step_classes,
)
from repro.kernel import STATS, reset_kernel_stats


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


def isf_pairs(classes):
    return [[(isf.lo, isf.hi) for isf in row] for row in classes.merged]


def assert_same_classes(hit, ref):
    assert hit.bound == ref.bound
    assert hit.classes == ref.classes
    assert hit.class_of == ref.class_of
    assert isf_pairs(hit) == isf_pairs(ref)


@pytest.mark.parametrize("density", [0.0, 0.25, 0.75, 1.0])
def test_classes_for_differential(density, monkeypatch):
    rng = random.Random(int(density * 100) + 7)
    bdd = BDD(7)
    variables = list(range(7))
    for _ in range(4):
        outputs = [random_isf(bdd, rng, variables, density)
                   for _ in range(2)]
        for p in (2, 3):
            bound = tuple(rng.sample(variables, p))  # unsorted on purpose
            monkeypatch.setenv("REPRO_KERNEL", "off")
            ref = classes_for(bdd, outputs, bound)
            monkeypatch.setenv("REPRO_KERNEL", "on")
            hit = classes_for(bdd, outputs, bound)
            assert isinstance(hit, LazyClasses)
            assert not isinstance(ref, LazyClasses)
            assert hit.bound == ref.bound
            assert hit.classes == ref.classes
            assert hit.class_of == ref.class_of
            assert isf_pairs(hit) == isf_pairs(ref)


@pytest.mark.parametrize("density", [0.25, 0.75])
def test_assign_by_classes_differential(density, monkeypatch):
    rng = random.Random(int(density * 100) + 13)
    bdd = BDD(6)
    variables = list(range(6))
    for _ in range(4):
        outputs = [random_isf(bdd, rng, variables, density)
                   for _ in range(2)]
        bound = tuple(rng.sample(variables, 2))
        monkeypatch.setenv("REPRO_KERNEL", "off")
        ref_cls = classes_for(bdd, outputs, bound)
        ref = assign_by_classes(bdd, outputs, ref_cls)
        ref_single = [classes_for(bdd, [isf], bound) for isf in ref]
        monkeypatch.setenv("REPRO_KERNEL", "on")
        hit_cls = classes_for(bdd, outputs, bound)
        # The kernel side of the narrowing: each output's classes after
        # it, covered on the masks, equal those of the narrowed output.
        for single, ref_k in zip(hit_cls.single_classes(), ref_single):
            assert_same_classes(single, ref_k)
        hit = assign_by_classes(bdd, outputs, hit_cls)
        assert [(i.lo, i.hi) for i in hit] == [(i.lo, i.hi) for i in ref]
        # The narrowing refines every output's interval.
        for before, after in zip(outputs, hit):
            assert after.refines(bdd, before)


#: Output supports of the step 2 -> 3 chain: equal, overlapping,
#: nested and single-variable, so some outputs miss the bound and a
#: narrowing can shrink an output's support below its table domain.
CHAIN_SUPPORTS = ([range(7), range(7)],
                  [range(0, 4), range(3, 7), (1, 5), (6,)])


@pytest.mark.parametrize("density", [0.3, 0.7])
def test_chained_single_classes_equal_narrowed_steps(density, monkeypatch):
    """Step 3's per-output classes chained from step 2's merged masks
    equal the classes of ``assign_step3_single(assign_step2_sharing())``
    on the BDD path, and the chain lowers nothing."""
    rng = random.Random(int(density * 100) + 19)
    bdd = BDD(7)
    variables = list(range(7))
    for supports in CHAIN_SUPPORTS:
        for _ in range(3):
            outputs = [random_isf(bdd, rng, list(support), density)
                       for support in supports]
            for p in (2, 3, 4):
                bound = tuple(rng.sample(variables, p))
                monkeypatch.setenv("REPRO_KERNEL", "off")
                narrowed, ref_joint = assign_step2_sharing(bdd, outputs,
                                                           bound)
                _, ref_single = assign_step3_single(bdd, narrowed, bound)
                monkeypatch.setenv("REPRO_KERNEL", "on")
                reset_kernel_stats()
                joint, single = dc_step_classes(bdd, outputs, bound)
                assert isinstance(joint, LazyClasses)
                assert STATS.op_hits["classes_for"] == 1 + len(outputs)
                assert STATS.misses == 0
                assert "merged_convert" not in STATS.op_hits
                assert_same_classes(joint, ref_joint)
                assert len(single) == len(ref_single)
                for hit, ref in zip(single, ref_single):
                    assert isinstance(hit, LazyClasses)
                    assert_same_classes(hit, ref)


@pytest.mark.parametrize("density", [0.25, 0.75])
def test_cover_satisfies_running_intersection(density):
    # Clique validity: pairwise compatibility is NOT enough for ISFs;
    # each class's running interval intersection must be non-empty and
    # equal the merged interval the kernel reports.
    rng = random.Random(int(density * 100) + 29)
    bdd = BDD(6)
    variables = list(range(6))
    for _ in range(4):
        outputs = [random_isf(bdd, rng, variables, density)
                   for _ in range(2)]
        bound = tuple(rng.sample(variables, 3))
        cls = classes_for(bdd, outputs, bound)
        assert isinstance(cls, LazyClasses)
        cofactors = vertex_cofactors(bdd, outputs, bound)
        for c, members in enumerate(cls.classes):
            running = list(cofactors[members[0]])
            for v in members[1:]:
                running = _intersect_vectors(bdd, running,
                                             list(cofactors[v]))
                assert running is not None, "cover built an invalid clique"
            assert [(i.lo, i.hi) for i in running] == \
                [(i.lo, i.hi) for i in cls.merged[c]]


def test_reduction_score_differential(monkeypatch):
    rng = random.Random(41)
    bdd = BDD(7)
    variables = list(range(7))
    for density in (0.0, 0.5):
        outputs = [random_isf(bdd, rng, variables, density)
                   for _ in range(3)]
        for p in (2, 3):
            bound = tuple(rng.sample(variables, p))
            monkeypatch.setenv("REPRO_KERNEL", "off")
            ref = reduction_score(bdd, outputs, bound)
            monkeypatch.setenv("REPRO_KERNEL", "on")
            assert reduction_score(bdd, outputs, bound) == ref


def sparse_full_support_isf(bdd, rng, variables, with_dc):
    """Cube-built ISF whose support covers all ``variables`` (small BDD
    even for wide supports, so the threshold tests stay fast)."""
    n = len(variables)
    lo = BDD.FALSE
    for i in range(0, n, 3):
        cube = {variables[(i + k) % n]: rng.randint(0, 1) for k in range(5)}
        lo = bdd.apply_or(lo, bdd.cube(cube))
    parity = BDD.FALSE
    for v in variables:  # parity term forces every variable live
        parity = bdd.apply_xor(parity, bdd.var(v))
    lo = bdd.apply_and(lo, parity)
    hi = lo
    if with_dc:
        dc = bdd.cube({variables[0]: 1, variables[-1]: 0})
        hi = bdd.apply_or(lo, dc)
    isf = ISF.create(bdd, lo, hi)
    assert isf.support(bdd) == set(variables)
    return isf


@pytest.mark.parametrize("nvars,served", [(15, True), (16, True),
                                          (17, False), (24, False),
                                          (25, False)])
def test_support_threshold_straddle(nvars, served, monkeypatch):
    """15/16 are served; 17, 24 and 25 exceed the cap and are refused
    with a ``too_wide`` miss."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(nvars)
    bdd = BDD(nvars)
    variables = list(range(nvars))
    isf = sparse_full_support_isf(bdd, rng, variables, with_dc=True)
    bound = tuple(variables[:3])
    reset_kernel_stats()
    monkeypatch.setenv("REPRO_KERNEL", "off")
    ref = classes_for(bdd, [isf], bound)
    monkeypatch.setenv("REPRO_KERNEL", "on")
    hit = classes_for(bdd, [isf], bound)
    assert isinstance(hit, LazyClasses) == served
    if served:
        assert STATS.hits > 0 and STATS.misses == 0
    else:
        assert STATS.hits == 0
        assert STATS.misses == STATS.miss_causes["too_wide"] > 0
    assert hit.classes == ref.classes
    assert hit.class_of == ref.class_of
    assert isf_pairs(hit) == isf_pairs(ref)


def test_max_vars_override(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    monkeypatch.setattr(kernel, "MAX_VARS", 4)
    rng = random.Random(51)
    bdd = BDD(6)
    variables = list(range(6))
    isf = random_isf(bdd, rng, variables, 0.5)
    reset_kernel_stats()
    cls = classes_for(bdd, [isf], (0, 1))
    assert not isinstance(cls, LazyClasses)
    assert STATS.misses > 0


def test_escape_hatch_disables_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "off")
    rng = random.Random(61)
    bdd = BDD(5)
    isf = random_isf(bdd, rng, list(range(5)), 0.5)
    reset_kernel_stats()
    cls = classes_for(bdd, [isf], (0, 1))
    assert not isinstance(cls, LazyClasses)
    # Disabled (as opposed to too-wide) dispatch is not counted a miss.
    assert STATS.hits == 0 and STATS.misses == 0


def test_disjoint_wide_bundle_served_per_output(monkeypatch):
    """Three outputs over disjoint 12/13/14-variable supports: the
    union (39 variables) is far past the cap, yet every output's own
    domain plus the bound fits the cap, so all three compatible-class
    ops are served without a miss — and node for node equal to the BDD
    path."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(83)
    bdd = BDD(39)
    supports = [list(range(0, 12)), list(range(12, 25)),
                list(range(25, 39))]
    outputs = [random_isf(bdd, rng, support, 0.3) for support in supports]
    assert all(isf.support(bdd) == set(support)
               for isf, support in zip(outputs, supports))
    for bound in ((0, 12, 25), (13, 1, 26), (25, 26)):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        ref = classes_for(bdd, outputs, bound)
        ref_score = reduction_score(bdd, outputs, bound)
        ref_narrowed = assign_by_classes(bdd, outputs, ref)
        ref_single = [classes_for(bdd, [isf], bound)
                      for isf in ref_narrowed]
        monkeypatch.setenv("REPRO_KERNEL", "on")
        reset_kernel_stats()
        hit = classes_for(bdd, outputs, bound)
        score = reduction_score(bdd, outputs, bound)
        single = hit.single_classes()
        assert STATS.misses == 0
        assert STATS.op_hits.get("reduction_score", 0) == 1
        # The joint classes, then one chained step-3 cover per output.
        assert STATS.op_hits.get("classes_for", 0) == 1 + len(outputs)
        # Step 3 reads the cover's masks: no merged interval was
        # lowered to a BDD on the way.
        assert STATS.op_hits.get("merged_convert", 0) == 0
        assert isinstance(hit, LazyClasses)
        assert hit.classes == ref.classes
        assert hit.class_of == ref.class_of
        assert isf_pairs(hit) == isf_pairs(ref)
        assert score == ref_score
        for chained, ref_k in zip(single, ref_single):
            assert_same_classes(chained, ref_k)
        narrowed = assign_by_classes(bdd, outputs, hit)
        assert [(i.lo, i.hi) for i in narrowed] == \
            [(i.lo, i.hi) for i in ref_narrowed]
