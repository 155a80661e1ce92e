"""Property tests: bound-set scoring from cofactor states == from-scratch.

The bound-set search keeps each output's cofactors over its part of a
bound as a state in a per-run store (one ``kernel_refine`` op per
split) and assembles a candidate's joint groups from those states
instead of re-extracting the full table; on completely specified
outputs it scores them by counts alone.  These tests pin the states'
alphabets and the assembled joint vectors *equal* to a from-scratch
dedup across DC densities and bound orders, pin the greedy growth's
split counts and the scores equal to a from-scratch cover, pin the
search results identical kernel on/off, and pin the profiler counters:
a served greedy search performs at most one split per output and
candidate and zero ``classes_from_scratch`` fallbacks.  The classes
the engine evaluates on a completely specified view are read off the
states; they are pinned equal to ``kernel_classes_for`` and to the BDD
``compute_classes``.  The engine's store lives for one run, and a
tiny byte budget only clears it.
"""

import random
from itertools import combinations

import pytest

from repro.bdd.manager import BDD
from repro.bench.registry import benchmark
from repro.boolfunc.spec import ISF
from repro.decomp import compat as decomp_compat
from repro.decomp.bound_set import (
    greedy_bound_set,
    rank_bound_sets,
    reduction_score,
)
from repro.decomp.compat import (
    LazyClasses,
    compute_classes,
    partition_classes,
    vertex_cofactors,
)
from repro.decomp.recursive import DecompositionEngine, DecompositionStats
from repro.kernel import STATS, reset_kernel_stats
from repro.kernel import refine as krefine
from repro.kernel.compat import (
    _cover,
    _cover_count,
    _dedup,
    _fit_variables,
    _vertex_masks,
    kernel_classes_for,
)
from repro.kernel.refine import CofactorStore, PartitionCache


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


def scratch_vectors(bdd, outputs, bound):
    """From-scratch vertex cofactor vectors of ``bound``, over the
    per-output domains a ``classes_for`` of ``bound`` would slice."""
    domains = _fit_variables(bdd, outputs, bound, "test")
    assert domains is not None
    return _vertex_masks(bdd, outputs, tuple(bound), domains)


#: Output supports of the refinement property: all outputs over every
#: variable, then overlapping and disjoint subsets, so a bound also
#: holds variables outside some outputs' domains.
SUPPORTS = ([range(7), range(7)],
            [range(0, 4), range(3, 7), (1, 5), (6,)])


def assert_states_equal_scratch(cache, bdd, outputs, bound):
    """The joint vectors assembled for ``bound`` and every output's
    state equal a from-scratch dedup of ``bound``, in order."""
    vectors = scratch_vectors(bdd, outputs, bound)
    uniq, _, complete = _dedup(vectors)
    states, parts = cache._states(bound)
    assert cache._vectors(states, parts, bound) == uniq
    assert cache.all_complete == complete
    # Each alphabet is its output's own dedup, in order, over its
    # support minus the bound.
    for k, (state, domain) in enumerate(zip(states, cache.domains)):
        column, _, _ = _dedup([[vec[k]] for vec in vectors])
        assert [[pair] for pair in state.alphabet] == column
        assert state.free == tuple(v for v in domain if v not in bound)


@pytest.mark.parametrize("density", [0.0, 0.3, 0.7])
def test_refined_partition_equals_scratch(density, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(int(density * 100) + 16)
    bdd = BDD(7)
    variables = list(range(7))
    for supports in SUPPORTS:
        for _ in range(3):
            outputs = [random_isf(bdd, rng, list(support), density)
                       for support in supports]
            cache = PartitionCache.for_call(bdd, outputs, "test")
            assert cache is not None
            for p in (1, 2, 3, 4):
                bound = tuple(rng.sample(variables, p))
                assert_states_equal_scratch(cache, bdd, outputs, bound)


@pytest.mark.parametrize("density", [0.0, 0.3, 0.7])
def test_refined_scores_equal_reduction_score(density, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(int(density * 100) + 59)
    bdd = BDD(6)
    variables = list(range(6))
    outputs = [random_isf(bdd, rng, variables, density) for _ in range(2)]
    cache = PartitionCache.for_call(bdd, outputs, "test")
    monkeypatch.setenv("REPRO_KERNEL", "off")
    for _ in range(6):
        bound = tuple(rng.sample(variables, rng.randint(2, 4)))
        assert cache.score_for(bound) == \
            reduction_score(bdd, outputs, bound)


def test_count_split_equals_scratch_cover(monkeypatch):
    """On completely specified outputs the greedy growth scores a
    candidate by counting its split's distinct keys; that count is the
    class count of a from-scratch clique cover."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(61)
    bdd = BDD(7)
    variables = list(range(7))
    for supports in SUPPORTS:
        for _ in range(3):
            outputs = [random_isf(bdd, rng, list(support), 0.0)
                       for support in supports]
            cache = PartitionCache.for_call(bdd, outputs, "test")
            for p in (0, 1, 2, 3):
                bound = tuple(rng.sample(variables, p))
                assert cache.all_complete
                pool = [var for var in variables if var not in bound]
                counts = cache.split_counts(bound, pool)
                for var, count in zip(pool, counts):
                    classes, _, _ = _cover(
                        scratch_vectors(bdd, outputs, bound + (var,)))
                    assert count == len(classes)
                    assert cache.score_for(bound + (var,))[2] == \
                        len(classes)


@pytest.mark.parametrize("density", [0.3, 0.7])
def test_cover_count_equals_scratch_cover(density, monkeypatch):
    """Incompletely specified bounds are scored by the clique cover's
    class count alone, without members; it equals the class count of a
    from-scratch cover, for an assembled bound and for a greedy
    round's split of one."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(int(density * 100) + 97)
    bdd = BDD(7)
    variables = list(range(7))
    for supports in SUPPORTS:
        for _ in range(3):
            outputs = [random_isf(bdd, rng, list(support), density)
                       for support in supports]
            cache = PartitionCache.for_call(bdd, outputs, "test")
            for p in (1, 2, 3, 4):
                bound = tuple(rng.sample(variables, p))
                vectors = scratch_vectors(bdd, outputs, bound)
                classes, _, _ = _cover(vectors)
                uniq, _, complete = _dedup(vectors)
                assert _cover_count(uniq, complete) == len(classes)
                assert cache.score_for(bound)[2] == len(classes)
                assert cache.split_counts(bound[:-1], bound[-1:]) == \
                    [len(classes)]


@pytest.mark.parametrize("density", [0.0, 0.2, 0.6])
def test_greedy_bound_set_differential(density, monkeypatch):
    rng = random.Random(int(density * 100) + 67)
    bdd = BDD(7)
    variables = list(range(7))
    for _ in range(3):
        outputs = [random_isf(bdd, rng, variables, density)
                   for _ in range(2)]
        monkeypatch.setenv("REPRO_KERNEL", "off")
        ref = greedy_bound_set(bdd, outputs, variables, 4)
        ref_rank = rank_bound_sets(bdd, outputs, variables, 3)
        monkeypatch.setenv("REPRO_KERNEL", "on")
        assert greedy_bound_set(bdd, outputs, variables, 4) == ref
        assert rank_bound_sets(bdd, outputs, variables, 3) == ref_rank


@pytest.mark.parametrize("density", [0.0, 0.3])
def test_multi_output_ranking_differential(density, monkeypatch):
    """A ranking of four outputs over different supports scores every
    candidate through one cache of all four; it ranks identically
    kernel on/off, count-only (density 0) and covered alike."""
    rng = random.Random(int(density * 100) + 71)
    bdd = BDD(8)
    variables = list(range(8))
    outputs = [random_isf(bdd, rng, list(support), density)
               for support in (range(8), range(0, 5), range(3, 8),
                               (1, 4, 6))]
    monkeypatch.setenv("REPRO_KERNEL", "off")
    refs = [rank_bound_sets(bdd, outputs, variables, p)
            for p in (3, 4, 5)]
    monkeypatch.setenv("REPRO_KERNEL", "on")
    for p, ref in zip((3, 4, 5), refs):
        assert rank_bound_sets(bdd, outputs, variables, p) == ref


def test_served_search_counts_refines_not_scratch(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(73)
    bdd = BDD(7)
    variables = list(range(7))
    outputs = [random_isf(bdd, rng, variables, 0.3) for _ in range(2)]
    reset_kernel_stats()
    bound = greedy_bound_set(bdd, outputs, variables, 4)
    assert bound is not None
    refines = STATS.op_hits.get("kernel_refine", 0)
    assert refines > 0
    assert STATS.scratch == 0
    # At most one split per output and candidate: the greedy search
    # scores at most |pool| candidates per growth round, each one the
    # child state of its round's states per output, and the state the
    # round grows is one of the last round's children — never the
    # O(p) rebuild a from-scratch call would do.
    rounds = len(bound)
    candidates = rounds * len(variables)
    assert refines <= len(outputs) * candidates


def test_score_memo_short_circuits_ranking(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(79)
    bdd = BDD(6)
    variables = list(range(6))
    outputs = [random_isf(bdd, rng, variables, 0.4) for _ in range(2)]
    memo = {}
    stats = DecompositionStats()
    key = (tuple((o.lo, o.hi) for o in outputs), 3)
    first = rank_bound_sets(bdd, outputs, variables, 3,
                            score_memo=memo, memo_key=key,
                            memo_stats=stats)
    assert memo
    assert (stats.greedy_memo_hits, stats.greedy_memo_misses) == (0, 1)
    assert stats.score_memo_hits == 0 and stats.score_memo_misses > 0
    reset_kernel_stats()
    second = rank_bound_sets(bdd, outputs, variables, 3,
                             score_memo=memo, memo_key=key,
                             memo_stats=stats)
    assert second == first
    # Every score and the greedy pick came out of the memo: no table
    # work at all, not even the greedy growth's refinements.
    assert STATS.op_hits.get("reduction_score", 0) == 0
    assert STATS.op_hits.get("kernel_refine", 0) == 0
    assert (stats.greedy_memo_hits, stats.greedy_memo_misses) == (1, 1)
    assert stats.score_memo_hits == stats.score_memo_misses


def test_score_memo_keys_greedy_pick_by_pool(monkeypatch):
    """The greedy pick depends on the variable pool, so another pool
    misses the memo and grows afresh: its ranking and pick equal those
    of a search without a memo."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(89)
    bdd = BDD(7)
    variables = list(range(7))
    outputs = [random_isf(bdd, rng, variables, 0.0) for _ in range(3)]
    memo = {}
    stats = DecompositionStats()
    key = (tuple((o.lo, o.hi) for o in outputs), 3)
    rank_bound_sets(bdd, outputs, variables, 3, score_memo=memo,
                    memo_key=key, memo_stats=stats)
    pool = variables[2:]
    ranked = rank_bound_sets(bdd, outputs, pool, 3, score_memo=memo,
                             memo_key=key, memo_stats=stats)
    assert (stats.greedy_memo_hits, stats.greedy_memo_misses) == (0, 2)
    assert memo[(key, "greedy", tuple(pool))] == \
        greedy_bound_set(bdd, outputs, pool, 3)
    assert ranked == rank_bound_sets(bdd, outputs, pool, 3)


def merged_pairs(classes):
    return [[(isf.lo, isf.hi) for isf in row] for row in classes.merged]


def assert_classes_equal(hit, bdd, outputs, bound):
    """``hit`` (classes read off a partition) equals the BDD
    ``compute_classes`` of ``outputs`` and, where it serves,
    ``kernel_classes_for``: classes, ``class_of`` and the lowered
    merged intervals."""
    ref = compute_classes(bdd, vertex_cofactors(bdd, outputs, bound), bound)
    assert hit.bound == ref.bound
    assert hit.classes == ref.classes
    assert hit.class_of == ref.class_of
    assert merged_pairs(hit) == merged_pairs(ref)
    served = kernel_classes_for(bdd, outputs, bound)
    if served is not None:
        _, classes, class_of, masks, frees = served
        assert (hit.classes, hit.class_of) == (classes, class_of)
        assert (hit.masks, hit.frees) == (masks, frees)
    return served is not None


@pytest.mark.parametrize("supports", SUPPORTS, ids=["equal", "mixed"])
def test_partition_classes_equal_cover(supports, monkeypatch):
    """On a completely specified view the joint classes are the refined
    groups and output ``k``'s are its alphabet: every bound of sizes
    1-4, jointly and per output (outputs the bound misses included),
    equals a from-scratch cover, counted as ``classes_for`` hits."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(101)
    bdd = BDD(7)
    outputs = [random_isf(bdd, rng, list(support), 0.0)
               for support in supports]
    cache = PartitionCache.for_call(bdd, outputs, "test")
    for p in (1, 2, 3, 4):
        bounds = list(combinations(range(7), p))
        bounds += [tuple(rng.sample(range(7), p)) for _ in range(4)]
        for bound in bounds:
            reset_kernel_stats()
            joint, per_output = partition_classes(bdd, cache, bound)
            assert STATS.op_hits["classes_for"] == 1 + len(outputs)
            assert isinstance(joint, LazyClasses)
            assert_classes_equal(joint, bdd, outputs, bound)
            for isf, single in zip(outputs, per_output):
                assert_classes_equal(single, bdd, [isf], bound)


def test_partition_classes_past_the_table_cap(monkeypatch):
    """A cache sized by the outputs' own supports serves bounds whose
    union with an output's support passes 16 variables, where
    ``kernel_classes_for`` misses; its classes equal the BDD path's."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(103)
    bdd = BDD(17)
    supports = (range(0, 14), range(3, 17))
    outputs = [random_isf(bdd, rng, list(support), 0.0)
               for support in supports]
    cache = PartitionCache.for_call(bdd, outputs, "test")
    for bound in ((0, 14, 15, 16), (16, 1, 14, 15), (2, 1, 0),
                  (15, 0, 1, 2)):
        assert any(len(set(s) | set(bound)) > 16 for s in supports)
        joint, per_output = partition_classes(bdd, cache, bound)
        assert not assert_classes_equal(joint, bdd, outputs, bound)
        for isf, single in zip(outputs, per_output):
            assert_classes_equal(single, bdd, [isf], bound)


def test_partition_classes_need_a_complete_view(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(107)
    bdd = BDD(6)
    outputs = [random_isf(bdd, rng, list(range(6)), 0.3)
               for _ in range(2)]
    cache = PartitionCache.for_call(bdd, outputs, "test")
    assert partition_classes(bdd, cache, (0, 1, 2)) is None


def test_memo_answered_ranking_evaluates_through_partitions(monkeypatch):
    """A bound-set search whose every score (and greedy pick) the memo
    answers still builds the ranking's cache, and its candidates read
    their classes off the run's states instead of ``classes_for``:
    the states the first search split are still in the engine's
    store, so the second splits nothing."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    bdd = BDD(8)
    support = list(range(8))
    # The bits of the input weight (rd84): any 5 inputs decompose.
    outputs = [ISF.complete(bdd.from_truth_table(
        [bin(x).count("1") >> bit & 1 for x in range(256)], support))
        for bit in range(4)]
    engine = DecompositionEngine(use_dontcares=False)
    groups = [[v] for v in support]
    first = engine._find_step(bdd, outputs, support, 5, groups)
    assert first is not None
    misses = engine.stats.score_memo_misses

    def refuse(*args):
        raise AssertionError("candidate classes recomputed from scratch")

    monkeypatch.setattr(decomp_compat, "kernel_classes_for", refuse)
    reset_kernel_stats()
    second = engine._find_step(bdd, outputs, support, 5, groups)
    assert engine.stats.score_memo_misses == misses
    assert engine.stats.greedy_memo_hits == 1
    assert STATS.op_hits.get("reduction_score", 0) == 0
    assert STATS.op_hits.get("kernel_refine", 0) == 0
    assert STATS.op_hits["classes_for"] > 0
    assert (second.bound, second.included, second.joint_min_r,
            second.gain) == (first.bound, first.included,
                             first.joint_min_r, first.gain)
    assert [enc.alpha_indices for enc in second.encodings] == \
        [enc.alpha_indices for enc in first.encodings]


@pytest.mark.parametrize("density", [0.0, 0.3, 0.7])
def test_unsorted_bounds_equal_scratch(density, monkeypatch):
    """Bounds in growth order (not sorted), holding variables outside
    some outputs' supports, all served by one store: the states'
    alphabets, the joint vectors, the scores, the greedy counts and the
    classes of the 0-completed view equal a from-scratch computation."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    rng = random.Random(int(density * 100) + 113)
    bdd = BDD(9)
    variables = list(range(8))
    for _ in range(3):
        outputs = [random_isf(bdd, rng, list(support), density)
                   for support in (range(8), range(0, 5), range(3, 8),
                                   (1, 4, 6))]
        completed = [ISF.complete(o.lo) for o in outputs]
        store = CofactorStore()
        cache = PartitionCache.for_call(bdd, outputs, "test", store)
        view = PartitionCache.for_call(bdd, completed, "test", store)
        growth = rng.sample(variables, 6)
        assert growth != sorted(growth)
        # A bound outside every support: one class, nothing removed.
        assert cache.score_for((8,)) == reduction_score(bdd, outputs, (8,))
        assert cache.split_counts((), [8]) == [1]
        joint, _ = partition_classes(bdd, view, (8,))
        assert_classes_equal(joint, bdd, completed, (8,))
        for p in range(7):
            bound = tuple(growth[:p])
            assert_states_equal_scratch(cache, bdd, outputs, bound)
            pool = [var for var in variables if var not in bound]
            counts = cache.split_counts(bound, pool)
            for var, count in zip(pool, counts):
                classes, _, _ = _cover(
                    scratch_vectors(bdd, outputs, bound + (var,)))
                assert count == len(classes)
            if not p:
                continue
            assert cache.score_for(bound) == \
                reduction_score(bdd, outputs, bound)
            joint, per_output = partition_classes(bdd, view, bound)
            assert_classes_equal(joint, bdd, completed, bound)
            for isf, single in zip(completed, per_output):
                assert_classes_equal(single, bdd, [isf], bound)


def engine_record(engine, net):
    stats = engine.stats
    return (net.to_blif(), stats.decomposition_steps, stats.shannon_steps,
            stats.alphas_created, stats.alphas_shared)


def test_engine_store_lives_for_one_run(monkeypatch):
    """Every run starts on an empty store, so a second run on the same
    manager splits exactly as much as the first and gives an identical
    record; direct calls without a store do not share one either."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    func = benchmark("f51m")
    engine = DecompositionEngine()
    first = engine_record(engine, engine.run(func))
    store = engine._cofactors
    splits = engine.stats.kernel_metrics["kernel_refine"]
    assert store._states and splits > 0
    second = engine_record(engine, engine.run(func))
    assert engine._cofactors is not store
    assert engine.stats.kernel_metrics["kernel_refine"] == splits
    assert second == first

    rng = random.Random(127)
    bdd = BDD(7)
    outputs = [random_isf(bdd, rng, list(range(7)), 0.0)
               for _ in range(2)]
    counts = []
    for _ in range(2):
        reset_kernel_stats()
        rank_bound_sets(bdd, outputs, list(range(7)), 3)
        counts.append(STATS.op_hits["kernel_refine"])
    assert counts[0] == counts[1] > 0


def test_tiny_byte_budget_only_clears_the_store(monkeypatch):
    """Past its byte budget the store clears and the search splits
    again from the roots: more splits, the same records."""
    monkeypatch.setenv("REPRO_KERNEL", "on")
    for dc in (False, True):
        engine = DecompositionEngine(use_dontcares=dc)
        reference = engine_record(engine, engine.run(benchmark("f51m")))
        splits = engine.stats.kernel_metrics["kernel_refine"]
        assert engine._cofactors._bytes > 4096
        with monkeypatch.context() as patch:
            patch.setattr(krefine, "CACHE_BYTES_LIMIT", 4096)
            engine = DecompositionEngine(use_dontcares=dc)
            tiny = engine_record(engine, engine.run(benchmark("f51m")))
            assert engine._cofactors._bytes <= 4096
        # States dropped on a clear are split again when read.
        assert engine.stats.kernel_metrics["kernel_refine"] > splits
        assert tiny == reference
