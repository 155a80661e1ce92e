"""Tests for decomposition statistics and the trace report."""

import random

from repro.bdd.manager import BDD
from repro.bench.registry import benchmark
from repro.boolfunc.spec import MultiFunction
from repro.core.api import map_to_xc3000
from repro.decomp import recursive
from repro.decomp.recursive import DecompositionEngine


def test_step_records_populated():
    rng = random.Random(761)
    bdd = BDD(7)
    tables = [[rng.randint(0, 1) for _ in range(128)] for _ in range(2)]
    func = MultiFunction.from_truth_tables(bdd, list(range(7)), tables)
    engine = DecompositionEngine(n_lut=4)
    engine.run(func)
    stats = engine.stats
    assert len(stats.steps) == stats.decomposition_steps
    for record in stats.steps:
        assert record.included >= 1
        assert record.included <= record.num_outputs
        assert record.alphas_used >= 1
        assert record.sum_r >= record.alphas_used
        assert len(record.bound) >= 2


def test_report_mentions_key_numbers():
    bdd = BDD(6)
    rng = random.Random(769)
    table = [rng.randint(0, 1) for _ in range(64)]
    func = MultiFunction.from_truth_tables(bdd, list(range(6)), [table])
    engine = DecompositionEngine(n_lut=4)
    engine.run(func)
    text = engine.stats.report()
    assert "decomposition steps" in text
    assert "Shannon fallbacks" in text
    assert str(engine.stats.decomposition_steps) in text


def test_report_flags_budget():
    rng = random.Random(773)
    bdd = BDD(8)
    table = [rng.randint(0, 1) for _ in range(256)]
    func = MultiFunction.from_truth_tables(bdd, list(range(8)), [table])
    engine = DecompositionEngine(n_lut=3, time_budget=0.0)
    engine.run(func)
    assert "budget exhausted" in engine.stats.report()


def test_score_memo_eviction_counter(monkeypatch):
    """The bound-set score memo clears wholesale at its budget and
    counts the eviction, like the kernel convert caches."""
    monkeypatch.setattr(recursive, "_SCORE_MEMO_LIMIT", 0)
    result = map_to_xc3000(benchmark("rd73"))
    assert result.stats.score_memo_evictions > 0
    assert "score memo evictions" in result.stats.report()
