"""Unit tests for the deterministic fault injector itself.

These cover the spec grammar, the determinism guarantees (same spec +
seed => same schedule), suppression, arrival/nth bookkeeping and the
zero-overhead unarmed contract — everything downstream chaos tests rely
on to be repeatable.
"""

import time

import pytest

from repro import faults
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpecError,
    parse_fault_specs,
)
from tests.faults.chaos_util import run_python


class TestSpecParsing:
    def test_single_clause(self):
        (spec,) = parse_fault_specs("cache.read:raise:0.5")
        assert spec.site == "cache.read"
        assert spec.kind == "raise"
        assert spec.prob == 0.5
        assert spec.nth is None

    def test_nth_clause(self):
        (spec,) = parse_fault_specs("bdd.ite:crash:1:100")
        assert spec.nth == 100

    def test_multiple_clauses_and_separators(self):
        specs = parse_fault_specs(
            "cache.read:raise:0.1, cache.write:corrupt:1;bdd.ite:hang:0.2")
        assert [(s.site, s.kind) for s in specs] == [
            ("cache.read", "raise"), ("cache.write", "corrupt"),
            ("bdd.ite", "hang")]

    def test_empty_clauses_skipped(self):
        assert parse_fault_specs(",, ,") == []

    @pytest.mark.parametrize("text", [
        "nosuchsite:raise:1",          # unknown site
        "cache.read:explode:1",        # unknown kind
        "cache.read:raise",            # missing probability
        "cache.read:raise:nan-ish:1:extra",  # too many fields
        "cache.read:raise:two",        # malformed probability
        "cache.read:raise:1.5",        # probability out of range
        "cache.read:raise:-0.1",       # probability out of range
        "cache.read:raise:1:zero",     # malformed nth
        "cache.read:raise:1:0",        # nth < 1
    ])
    def test_malformed_specs_refused(self, text):
        with pytest.raises(FaultSpecError):
            parse_fault_specs(text)

    def test_arm_validates_eagerly(self, monkeypatch):
        with pytest.raises(FaultSpecError):
            faults.arm("cache.read:bogus:1")
        assert not faults.armed()


class TestUnarmedZeroOverhead:
    def test_fault_point_is_identity(self):
        payload = object()
        assert faults.fault_point("cache.read", payload) is payload
        assert faults.fault_point("worker.start") is None

    def test_hook_is_none(self):
        for site in faults.SITES:
            assert faults.hook(site) is None

    def test_not_armed(self):
        assert not faults.armed()
        assert faults.counters() == {}


class TestDeterminism:
    def test_nth_fires_exactly_once(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cache.read:raise:1:3")
        fired_at = []
        for arrival in range(1, 11):
            try:
                faults.fault_point("cache.read")
            except FaultInjected:
                fired_at.append(arrival)
        assert fired_at == [3]
        assert faults.counters() == {"cache.read:raise": 1}

    def test_prob_stream_reproducible(self):
        def schedule(seed):
            plan = FaultPlan(parse_fault_specs("cache.read:raise:0.3",
                                               seed=seed))
            fires = []
            for arrival in range(200):
                try:
                    plan.fire("cache.read")
                except FaultInjected:
                    fires.append(arrival)
            return fires

        first = schedule(seed=7)
        assert first == schedule(seed=7)     # same seed, same schedule
        assert first != schedule(seed=8)     # different seed, different
        assert 20 < len(first) < 120         # roughly prob-shaped

    def test_seed_env_changes_schedule(self, monkeypatch):
        def schedule():
            faults.reset_in_worker()  # fresh arrival counters
            fires = []
            for arrival in range(100):
                try:
                    faults.fault_point("cache.read")
                except FaultInjected:
                    fires.append(arrival)
            return fires

        monkeypatch.setenv(faults.ENV_VAR, "cache.read:raise:0.3")
        monkeypatch.setenv(faults.SEED_ENV, "1")
        first = schedule()
        assert schedule() == first
        monkeypatch.setenv(faults.SEED_ENV, "2")
        assert schedule() != first

    def test_reset_in_worker_restarts_arrivals(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cache.read:raise:1:2")
        faults.fault_point("cache.read")          # arrival 1: no fire
        faults.reset_in_worker()
        faults.fault_point("cache.read")          # arrival 1 again
        with pytest.raises(FaultInjected):
            faults.fault_point("cache.read")      # arrival 2: fires

    def test_corrupt_flips_one_deterministic_bit(self):
        payload = b"deterministic chaos payload"

        def corrupted():
            plan = FaultPlan(parse_fault_specs("cache.write:corrupt:1:1",
                                               seed=3))
            return plan.fire("cache.write", payload)

        first = corrupted()
        assert first == corrupted()
        diff = int.from_bytes(payload, "big") ^ int.from_bytes(first, "big")
        assert bin(diff).count("1") == 1  # exactly one bit flipped

    def test_corrupt_handles_degenerate_payloads(self):
        assert faults.perform("corrupt", payload=None) is None
        assert faults.perform("corrupt", payload=b"") == b""


class TestSuppression:
    def test_suppressed_masks_armed_sites(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cache.read:raise:1")
        with faults.suppressed():
            payload = object()
            assert faults.fault_point("cache.read", payload) is payload
        with pytest.raises(FaultInjected):
            faults.fault_point("cache.read")

    def test_suppression_nests(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cache.read:raise:1")
        with faults.suppressed():
            with faults.suppressed():
                pass
            assert faults.fault_point("cache.read", 1) == 1
        with pytest.raises(FaultInjected):
            faults.fault_point("cache.read")

    def test_suppression_masks_only_the_calling_thread(self,
                                                       monkeypatch):
        # A fallback on one thread must not hide the storage sites
        # another thread of the same parent passes.
        import threading

        monkeypatch.setenv(faults.ENV_VAR, "cache.write:raise:1")
        seen = []

        def other_thread():
            try:
                faults.fault_point("cache.write")
                seen.append("masked")
            except FaultInjected:
                seen.append("fired")

        with faults.suppressed():
            assert faults.fault_point("cache.write", 1) == 1
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert seen == ["fired"]


class TestKinds:
    def test_raise_carries_site(self):
        with pytest.raises(FaultInjected) as excinfo:
            faults.perform("raise", site="bdd.ite")
        assert excinfo.value.site == "bdd.ite"
        assert "bdd.ite" in str(excinfo.value)

    def test_unknown_kind_refused(self):
        with pytest.raises(FaultSpecError):
            faults.perform("explode")

    def test_hang_duration_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.HANG_ENV, "0.05")
        started = time.monotonic()
        faults.perform("hang")
        elapsed = time.monotonic() - started
        assert 0.04 <= elapsed < 1.0

    def test_oom_raises_memory_error_within_cap(self, monkeypatch):
        monkeypatch.setenv(faults.OOM_ENV, "8")
        with pytest.raises(MemoryError):
            faults.perform("oom")

    def test_crash_exit_code(self):
        proc = run_python(
            "from repro import faults; faults.perform('crash')")
        assert proc.returncode == faults.CRASH_EXIT_CODE


class TestArming:
    def test_arm_disarm_roundtrip(self, monkeypatch):
        faults.arm("bdd.ite:raise:0.5", seed=9)
        assert faults.armed()
        assert faults.hook("bdd.ite") is not None
        assert faults.hook("cache.read") is None  # unarmed site
        faults.disarm()
        assert not faults.armed()
        assert faults.hook("bdd.ite") is None

    def test_counters_track_fires_per_site_kind(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR,
                           "cache.read:raise:1:1,cache.write:raise:1:1")
        for site in ("cache.read", "cache.write"):
            with pytest.raises(FaultInjected):
                faults.fault_point(site)
        assert faults.counters() == {"cache.read:raise": 1,
                                     "cache.write:raise": 1}
