"""Edge-case tests for the batch scheduler.

The hooks exercised here (``hang:<s>``, ``crash``/``crash:<n>``) fire
inside worker processes only, so the parent-side timeout/retry/degrade
machinery is tested end to end with real process kills.
"""

import pytest

from repro.bench.registry import benchmark
from repro.core.api import map_to_xc3000
from repro.runtime import (
    BatchScheduler,
    ResultCache,
    make_job,
    source_from_name,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


def _jobs(*names, **kwargs):
    return [make_job(source_from_name(n), **kwargs) for n in names]


class TestParallelMatchesSerial:
    def test_bit_identical_lut_counts(self):
        names = ("rd53", "xor5", "majority", "z4ml")
        results = BatchScheduler(workers=2).run(_jobs(*names))
        assert [r.job_id for r in results] == list(names)  # input order
        for res in results:
            ref = map_to_xc3000(benchmark(res.job_id))
            assert res.status == "ok"
            assert res.result["lut_count"] == ref.lut_count
            assert res.result["clb_count"] == ref.clb_count
            assert res.result["depth"] == ref.depth
            assert res.result["verified"] is True


class TestEmptyBatch:
    def test_no_jobs_is_fine(self):
        assert BatchScheduler(workers=2).run([]) == []


class TestTimeout:
    def test_hung_job_degrades_without_blocking(self):
        jobs = _jobs("rd53")
        jobs.append(make_job(source_from_name("rd73"),
                             test_hook="hang:60"))
        results = BatchScheduler(workers=2, timeout=1.0).run(jobs)
        healthy, hung = results
        assert healthy.status == "ok"
        assert hung.status == "degraded"
        assert hung.degraded
        assert "timeout" in hung.error
        assert hung.retries == 0  # timeouts degrade, they do not retry
        # The degraded fallback is a real, verified network.
        assert hung.result["lut_count"] > 0
        assert hung.result["degraded"] is True
        assert hung.result["verified"] is True

    def test_timeout_without_degradation_fails(self):
        jobs = [make_job(source_from_name("rd53"), test_hook="hang:60")]
        [res] = BatchScheduler(workers=1, timeout=0.5,
                               degrade=False).run(jobs)
        assert res.status == "failed"
        assert res.result is None


class TestCrash:
    def test_persistent_crash_retries_then_degrades(self):
        jobs = [make_job(source_from_name("xor5"), test_hook="crash")]
        [res] = BatchScheduler(workers=1, retries=2,
                               retry_backoff_s=0.01).run(jobs)
        assert res.status == "degraded"
        assert res.retries == 2
        assert "crash" in res.error
        assert res.result["verified"] is True

    def test_transient_crash_recovers(self):
        jobs = [make_job(source_from_name("xor5"), test_hook="crash:1")]
        [res] = BatchScheduler(workers=1, retries=1,
                               retry_backoff_s=0.01).run(jobs)
        assert res.status == "ok"
        assert res.retries == 1
        ref = map_to_xc3000(benchmark("xor5"))
        assert res.result["lut_count"] == ref.lut_count


class TestFailures:
    def test_unbuildable_source_fails_cleanly(self, tmp_path):
        jobs = [make_job({"kind": "pla",
                          "path": str(tmp_path / "missing.pla")})]
        cache = ResultCache(tmp_path / "cache")
        [res] = BatchScheduler(workers=1, cache=cache,
                               retries=0).run(jobs)
        assert res.status == "failed"
        assert res.error

    def test_worker_exception_degrades_not_retries(self, tmp_path):
        # A bad PLA file raises inside the worker (no cache, so the
        # parent never opened it); deterministic -> no retry, degrade
        # is impossible (build fails there too) -> failed.
        bad = tmp_path / "bad.pla"
        bad.write_text("this is not a PLA file\n")
        jobs = [make_job({"kind": "pla", "path": str(bad)})]
        [res] = BatchScheduler(workers=1, retries=3).run(jobs)
        assert res.status == "failed"
        assert res.retries == 0


class TestCacheIntegration:
    def test_second_run_all_hits_and_identical(self, tmp_path):
        names = ("rd53", "xor5", "z4ml")
        cache = ResultCache(tmp_path)
        cold = BatchScheduler(workers=2, cache=cache).run(_jobs(*names))
        assert all(not r.cache_hit for r in cold)
        warm_cache = ResultCache(tmp_path)  # fresh LRU, disk only
        warm = BatchScheduler(workers=2,
                              cache=warm_cache).run(_jobs(*names))
        assert all(r.cache_hit for r in warm)
        assert all(r.status == "ok" for r in warm)
        for a, b in zip(cold, warm):
            assert a.result["lut_count"] == b.result["lut_count"]
            assert a.result["blif"] == b.result["blif"]

    def test_config_partitions_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = BatchScheduler(workers=1, cache=cache)
        [dc] = run.run(_jobs("rd73", config={"use_dontcares": True}))
        [nodc] = run.run(_jobs("rd73", config={"use_dontcares": False}))
        assert not nodc.cache_hit  # different config, different key
        [dc2] = run.run(_jobs("rd73", config={"use_dontcares": True}))
        assert dc2.cache_hit
        assert dc2.result["lut_count"] == dc.result["lut_count"]

    def test_degraded_results_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [make_job(source_from_name("rd53"), test_hook="hang:60")]
        [res] = BatchScheduler(workers=1, timeout=0.5,
                               cache=cache).run(jobs)
        assert res.status == "degraded"
        retry = [make_job(source_from_name("rd53"))]
        [clean] = BatchScheduler(workers=1,
                                 cache=ResultCache(tmp_path)).run(retry)
        assert not clean.cache_hit  # degraded run left no entry
        assert clean.status == "ok"


class TestDegradedRecord:
    def test_dsd_stamp_changes_nothing(self):
        # The fallback is a zero-budget run: the engine skips the DSD
        # probe once the deadline has passed.
        from repro.runtime.scheduler import degraded_record

        job = make_job(source_from_name("rd84"))
        job.pop("dsd", None)
        assert degraded_record(job) == degraded_record(dict(job,
                                                            dsd=False))


class TestCompareFlow:
    def test_compare_records_both_drivers(self):
        jobs = [make_job(source_from_name("rd73"), flow="compare")]
        [res] = BatchScheduler(workers=1).run(jobs)
        assert res.status == "ok"
        record = res.result
        assert record["verified"] is True
        base = map_to_xc3000(benchmark("rd73"), use_dontcares=False)
        with_dc = map_to_xc3000(benchmark("rd73"), use_dontcares=True)
        assert record["mulopII"]["clb_count"] == base.clb_count
        assert record["mulop_dc"]["clb_count"] == with_dc.clb_count
        assert record["clbs_saved"] == (base.clb_count
                                        - with_dc.clb_count)


class TestShutdownHygiene:
    def test_no_orphans_when_callback_interrupts(self):
        # Regression: an exception escaping run()'s main loop (here a
        # KeyboardInterrupt from the on_result callback while two hung
        # workers are still in flight) used to leak the live worker
        # processes; the try/finally must kill and reap every one.
        import multiprocessing
        import time

        jobs = _jobs("rd53")
        jobs += [make_job(source_from_name(name), test_hook="hang:60")
                 for name in ("rd73", "rd84")]

        def interrupt(res):
            raise KeyboardInterrupt

        sched = BatchScheduler(workers=3, retries=0)
        with pytest.raises(KeyboardInterrupt):
            sched.run(jobs, on_result=interrupt)
        deadline = time.monotonic() + 5.0
        while (multiprocessing.active_children()
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


    def test_finished_batch_stops_workers_without_signals(self,
                                                          tmp_path):
        # Idle workers of a finished batch get a stop message, not
        # SIGTERM, which would run a handler inherited from the parent.
        import os
        import signal

        marker = tmp_path / "handler-ran"

        def handler(signum, frame):
            marker.write_text(str(os.getpid()))
            os._exit(0)

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            results = BatchScheduler(workers=2).run(_jobs("rd53", "xor5"))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert [r.status for r in results] == ["ok", "ok"]
        assert not marker.exists()


class TestRetryBackoff:
    def test_jitter_stream_is_seeded(self):
        # Same seed, same retry spread; different seed, different spread
        # (deterministic chaos runs need reproducible schedules).
        def draws(seed):
            rng = BatchScheduler(backoff_seed=seed)._rng
            return [rng.uniform(0.5, 1.5) for _ in range(8)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        assert all(0.5 <= x <= 1.5 for x in draws(7))
