"""The exclusive-time phase profiler and its context-variable hookup."""

import gc
import time
from contextlib import nullcontext

from repro.obs import (
    PhaseProfiler,
    activate_profiler,
    current_profiler,
    profile_phase,
)


class TestPhaseProfiler:
    def test_counts_and_times(self):
        prof = PhaseProfiler()
        with prof.phase("a"):
            time.sleep(0.01)
        with prof.phase("a"):
            pass
        assert prof.counts["a"] == 2
        assert prof.times["a"] >= 0.01

    def test_nested_time_is_exclusive(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            time.sleep(0.01)
            with prof.phase("inner"):
                time.sleep(0.02)
            time.sleep(0.01)
        assert prof.times["inner"] >= 0.02
        # Outer must NOT include inner's sleep.
        assert prof.times["outer"] < 0.02 + 0.015
        assert abs(prof.total()
                   - (prof.times["outer"] + prof.times["inner"])) < 1e-9

    def test_as_dict_shape(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        data = prof.as_dict()
        assert data["x"]["calls"] == 1
        assert data["x"]["time_s"] >= 0.0

    def test_exception_still_closes_phase(self):
        prof = PhaseProfiler()
        try:
            with prof.phase("boom"):
                raise RuntimeError()
        except RuntimeError:
            pass
        assert prof._stack == []
        assert prof.counts["boom"] == 1


class TestActivation:
    def test_profile_phase_noop_when_inactive(self):
        assert current_profiler() is None
        with profile_phase("ignored"):
            pass  # must not raise

    def test_profile_phase_reports_to_active(self):
        prof = PhaseProfiler()
        with activate_profiler(prof):
            assert current_profiler() is prof
            with profile_phase("work"):
                pass
        assert current_profiler() is None
        assert prof.counts["work"] == 1

    def test_engine_run_fills_phase_stats(self):
        from repro.bench.registry import benchmark
        from repro.decomp.recursive import DecompositionEngine
        engine = DecompositionEngine()
        engine.run(benchmark("rd53"))
        stats = engine.stats
        assert stats.phase_times
        assert stats.phase_counts
        assert stats.bdd_metrics is not None
        assert stats.bdd_metrics.peak_nodes > 2
        profile = stats.phase_profile()
        assert set(profile) == set(stats.phase_times)
        # The don't-care pipeline phases of the paper must be visible.
        assert "cofactors" in profile or "leaf_emit" in profile

    def test_report_includes_phases(self):
        from repro.bench.registry import benchmark
        from repro.decomp.recursive import DecompositionEngine
        engine = DecompositionEngine()
        engine.run(benchmark("rd53"))
        assert "phase " in engine.stats.report()


class TestGarbageCollection:
    @staticmethod
    def _cyclic_garbage(n=100_000):
        nodes = [[] for _ in range(n)]
        for a, b in zip(nodes, nodes[1:]):
            a.append(b)
            b.append(a)

    def _collect_in_phase(self, prof, activate):
        """A phase whose only work is one full collection; returns the
        collection's own wall time.  Automatic collections are off, so
        the explicit one is the only one."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._cyclic_garbage()
            with activate_profiler(prof) if activate else nullcontext():
                with prof.phase("work"):
                    t0 = time.perf_counter()
                    gc.collect()
                    took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        return took

    def test_collection_is_charged_to_gc_not_the_phase(self):
        prof = PhaseProfiler()
        took = self._collect_in_phase(prof, activate=True)
        assert prof.counts["gc"] == 1
        assert prof.times["work"] < took
        # gc gets the rest: the phase's wall time is split between the
        # two, and gc's share is the collection itself.
        assert prof.times["gc"] <= took
        assert prof.times["work"] + prof.times["gc"] >= took

    def test_inactive_profiler_gets_no_gc_entry(self):
        prof = PhaseProfiler()
        took = self._collect_in_phase(prof, activate=False)
        assert "gc" not in prof.times
        assert prof.times["work"] >= took

    def test_engine_phase_times_carry_gc(self):
        from repro.bench.registry import benchmark
        from repro.decomp.recursive import DecompositionEngine
        from repro.obs.metrics import profile_report
        # A low generation-0 threshold makes the run certain to meet
        # collections inside its phases.
        old = gc.get_threshold()
        gc.set_threshold(50, old[1], old[2])
        try:
            engine = DecompositionEngine()
            engine.run(benchmark("rd53"))
        finally:
            gc.set_threshold(*old)
        stats = engine.stats
        assert stats.phase_times["gc"] > 0.0
        assert stats.phase_counts["gc"] >= 1
        assert "  gc " in profile_report(stats, stats.bdd_metrics)

