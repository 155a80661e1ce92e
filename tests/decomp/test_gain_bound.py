"""The bound-set evaluation bound of ``DecompositionEngine._find_step``.

A ranked candidate's step gain is at most its ranking reduction
``-score[0]`` less half the fewest alphas an included output can bring
(``_gain_bound``, read off the ranking's partitions).  ``_find_step``
skips candidates whose bound cannot beat the best step so far and stops
at the first whose reduction cannot, so these tests pin the bound on
every ranked candidate of random complete multi-output functions and
pin the step ``_find_step`` returns equal to the one it returns with
the bound disabled.
"""

import math
import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp import recursive
from repro.decomp.bound_set import rank_bound_sets
from repro.decomp.recursive import DecompositionEngine, _gain_bound
from repro.kernel.refine import PartitionCache

#: (seed, inputs, outputs); each output is a random function of a
#: random subset of the inputs, so the supports overlap partly and the
#: free sets are small enough for candidates to reduce.  With this many
#: cases a search that stopped one gain too early returns another step
#: on some of them.
CASES = [(seed, 6 + seed % 4, 2 + seed % 4) for seed in range(64)]


def random_outputs(seed, nvars, nout, p):
    rng = random.Random(9000 + 31 * seed + p)
    bdd = BDD(nvars)
    variables = list(range(nvars))
    outputs = []
    for _ in range(nout):
        sub = sorted(rng.sample(variables, rng.randint(p + 1, nvars)))
        table = [rng.randint(0, 1) for _ in range(1 << len(sub))]
        outputs.append(ISF.complete(bdd.from_truth_table(table, sub)))
    return bdd, outputs, variables


def step_key(step):
    if step is None:
        return None
    return (step.bound, step.gain, sorted(step.included), step.joint_min_r,
            [alpha.values for alpha in step.pool],
            [(enc.alpha_indices, enc.codes) for enc in step.encodings])


@pytest.mark.parametrize("p", [3, 4, 5])
def test_every_evaluated_gain_is_within_its_bound(p):
    checked = tightened = 0
    for seed, nvars, nout in CASES:
        bdd, outputs, support = random_outputs(seed, nvars, nout, p)
        engine = DecompositionEngine(use_dontcares=False)
        cache = PartitionCache.for_call(bdd, outputs, "reduction_score")
        groups = [[v] for v in support]
        for bound, score in rank_bound_sets(bdd, outputs, support, p,
                                            groups, cache=cache):
            limit = _gain_bound(cache, bound, score)
            assert limit <= -score[0]
            tightened += limit < -score[0]
            step = engine._evaluate_candidate(bdd, outputs, bound, cache)
            if step is not None:
                assert step.gain <= limit, (seed, p, bound)
                checked += 1
    assert checked > 0
    assert tightened > 0


@pytest.mark.parametrize("p", [3, 4, 5])
def test_find_step_equals_unbounded_search(p, monkeypatch):
    evaluations = {"bounded": 0, "unbounded": 0}
    original = DecompositionEngine._evaluate_candidate
    mode = {"name": "bounded"}

    def counting(self, *args, **kwargs):
        evaluations[mode["name"]] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DecompositionEngine, "_evaluate_candidate",
                        counting)
    found = 0
    for seed, nvars, nout in CASES:
        bdd, outputs, support = random_outputs(seed, nvars, nout, p)
        groups = [[v] for v in support]
        mode["name"] = "bounded"
        bounded = DecompositionEngine(use_dontcares=False)._find_step(
            bdd, outputs, support, p, groups)
        with monkeypatch.context() as patch:
            patch.setattr(recursive, "_gain_bound",
                          lambda *args: math.inf)
            mode["name"] = "unbounded"
            unbounded = DecompositionEngine(use_dontcares=False)._find_step(
                bdd, outputs, support, p, groups)
        assert step_key(bounded) == step_key(unbounded), (seed, p)
        found += bounded is not None
    assert found > 0
    # The bound skipped work somewhere, so the comparison is not vacuous.
    assert evaluations["bounded"] < evaluations["unbounded"]
