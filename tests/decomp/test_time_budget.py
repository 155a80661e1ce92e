"""Tests for the engine's wall-clock budget fallback."""

import random

from repro.bdd.manager import BDD
from repro.boolfunc.spec import MultiFunction
from repro.decomp.recursive import DecompositionEngine


def test_zero_budget_still_correct():
    """With an already-expired budget the engine must fall back to the
    MUX mapping immediately — and stay functionally correct."""
    rng = random.Random(401)
    bdd = BDD(8)
    tables = [[rng.randint(0, 1) for _ in range(256)] for _ in range(2)]
    func = MultiFunction.from_truth_tables(bdd, list(range(8)), tables)
    engine = DecompositionEngine(n_lut=5, time_budget=0.0)
    net = engine.run(func)
    assert net.max_fanin() <= 5
    for k in range(0, 256, 5):
        bits = [(k >> (7 - i)) & 1 for i in range(8)]
        got = net.eval_outputs(dict(zip(func.input_names, bits)))
        assert got["f0"] == tables[0][k]
        assert got["f1"] == tables[1][k]


def test_budget_none_unchanged():
    rng = random.Random(409)
    bdd = BDD(6)
    table = [rng.randint(0, 1) for _ in range(64)]
    func = MultiFunction.from_truth_tables(bdd, list(range(6)), [table])
    a = DecompositionEngine(n_lut=5).run(func)
    b = DecompositionEngine(n_lut=5, time_budget=None).run(func)
    assert a.lut_count == b.lut_count


def test_generous_budget_matches_unbudgeted():
    rng = random.Random(419)
    bdd = BDD(7)
    table = [rng.randint(0, 1) for _ in range(128)]
    func = MultiFunction.from_truth_tables(bdd, list(range(7)), [table])
    a = DecompositionEngine(n_lut=4).run(func)
    b = DecompositionEngine(n_lut=4, time_budget=3600).run(func)
    assert a.lut_count == b.lut_count


def test_expired_budget_skips_the_dsd_probe():
    """Past the deadline every level falls back to the MUX walk, so the
    DSD pre-pass never probes and its switch changes nothing."""
    from repro.bench.registry import benchmark
    from repro.core.api import map_to_xc3000

    func = benchmark("rd84")
    on = map_to_xc3000(func, use_dontcares=False, time_budget=0.0,
                       use_dsd=True)
    off = map_to_xc3000(func, use_dontcares=False, time_budget=0.0,
                        use_dsd=False)
    assert on.stats.budget_exhausted
    assert not on.stats.dsd
    assert on.to_record() == off.to_record()
