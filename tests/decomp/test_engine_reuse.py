"""One engine instance across several runs must behave like fresh ones.

Every per-run memo (score memo, MUX memo, Shannon-cooldown flag, DSD
irreducible-interval memo, stats, profiler) keys on node ids or signals
of the previous run's network; any of them surviving ``run()`` silently
corrupts the next result.  These tests pin the reset-at-entry contract.
"""

import random

import pytest

from repro.bdd.manager import BDD
from repro.core.api import map_to_xc3000
from repro.decomp.recursive import DecompositionEngine
from repro.runtime.jobspec import build_function, parse_manifest_entry
from tests.decomp.test_recursive import random_mf
from repro.verify.equiv import check_extension

#: Table 1 rows and small synthetic sources (from perfbench's pool)
#: mapped on a warm manager.
WARM_SOURCES = ("rd84", "alu2", "apex7", "duke2", "synth:pb:8:4:c2",
                "synth:pb:13:5:c28", "synth:pb:14:6:c34",
                "synth:pb:10:6:c714")


def _blif(func, engine):
    return engine.run(func).to_blif("reused")


class TestCrossRunIsolation:
    def test_second_run_matches_fresh_engine(self):
        rng = random.Random(61)
        bdd_a = BDD(7)
        func_a = random_mf(bdd_a, rng, 7, 2, dc_prob=0.2)
        bdd_b = BDD(7)
        func_b = random_mf(bdd_b, rng, 7, 3, dc_prob=0.2)

        fresh = DecompositionEngine()
        expected = _blif(func_b, fresh)

        reused = DecompositionEngine()
        _blif(func_a, reused)
        got = _blif(func_b, reused)
        assert got == expected
        assert check_extension(func_b, reused.run(func_b)).equivalent

    def test_same_function_twice_is_deterministic(self):
        rng = random.Random(67)
        bdd = BDD(7)
        func = random_mf(bdd, rng, 7, 2)
        engine = DecompositionEngine()
        assert _blif(func, engine) == _blif(func, engine)

    def test_stats_and_memos_reset_per_run(self):
        rng = random.Random(71)
        bdd = BDD(6)
        func = random_mf(bdd, rng, 6, 2)
        engine = DecompositionEngine()
        engine.run(func)
        first_steps = engine.stats.decomposition_steps
        first_dsd = dict(engine.stats.dsd)
        first_counter = engine._dsd_counter
        engine.run(func)
        # Counters restart, they do not accumulate.
        assert engine.stats.decomposition_steps == first_steps
        assert dict(engine.stats.dsd) == first_dsd
        assert engine._dsd_counter == first_counter

    def test_reset_clears_dsd_memo(self):
        rng = random.Random(73)
        bdd = BDD(6)
        func = random_mf(bdd, rng, 6, 2)
        engine = DecompositionEngine()
        engine.run(func)
        engine._dsd_irreducible.add((123456, 654321, False))
        engine._score_memo[("poison",)] = (0, 0, 0)
        engine.run(func)
        assert (123456, 654321, False) not in engine._dsd_irreducible
        assert ("poison",) not in engine._score_memo


class TestWarmManager:
    """A serve worker keeps built functions warm, so a request for the
    other driver maps on a BDD manager that has already run one map.
    Its record must equal that of a map of a fresh build."""

    @pytest.mark.parametrize("first", [False, True],
                             ids=["mulopII-first", "mulop-dc-first"])
    @pytest.mark.parametrize("entry", WARM_SOURCES)
    def test_other_driver_on_warm_manager_matches_fresh(self, entry, first,
                                                        monkeypatch):
        # No sub-ISF memo: a splice would skip the search under test.
        monkeypatch.setenv("REPRO_SUBMEMO", "off")
        source = parse_manifest_entry(entry)["source"]
        warm = build_function(source)
        map_to_xc3000(warm, use_dontcares=first)
        got = map_to_xc3000(warm, use_dontcares=not first).to_record()
        fresh = map_to_xc3000(build_function(source),
                              use_dontcares=not first).to_record()
        assert got["blif"] == fresh["blif"]
        assert got == fresh
