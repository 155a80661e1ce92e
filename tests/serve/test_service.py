"""DecompositionService semantics, driven directly on an event loop:
cache read-through, single-flight, admission control, the retry/degrade
ladder, and bit-identical parity with the synchronous ``repro map``.
"""

import asyncio

import pytest

from repro.bench.registry import benchmark
from repro.core.api import map_to_xc3000
from repro.runtime.cache import ResultCache
from repro.serve import DecompositionService, Overloaded, ShuttingDown
from repro.serve.protocol import parse_request

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


def run_with_service(coro_fn, **kwargs):
    """Run ``coro_fn(service)`` on a fresh loop, always draining."""
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("timeout", 120.0)
    kwargs.setdefault("retry_backoff_s", 0.01)
    kwargs.setdefault("heartbeat_s", 0.2)

    async def main():
        service = DecompositionService(**kwargs)
        try:
            return await coro_fn(service)
        finally:
            await service.drain(timeout=15)

    return asyncio.run(main())


def req(obj, **parse_kwargs):
    parse_kwargs.setdefault("allow_test_hooks", True)
    return parse_request(obj, **parse_kwargs)


class TestHappyPath:
    def test_result_is_bit_identical_to_repro_map(self):
        async def scenario(service):
            return await service.handle(
                req({"source": "xor5", "include_blif": True}),
                lambda frame: None)

        final = run_with_service(scenario)
        assert final["status"] == "ok" and final["cache_hit"] is False
        record = final["result"]
        assert record["verified"] is True
        # The acceptance bar: a served result equals what the
        # synchronous `repro map` path produces, bit for bit.
        ref = map_to_xc3000(benchmark("xor5")).to_record()
        assert record["blif"] == ref["blif"]
        assert record["lut_count"] == ref["lut_count"]
        assert record["clb_count"] == ref["clb_count"]
        assert record["depth"] == ref["depth"]
        assert record["engine"] == ref["engine"]

    @pytest.mark.parametrize("first", [False, True],
                             ids=["mulopII-first", "mulop-dc-first"])
    def test_other_driver_on_a_warm_worker_matches_repro_map(self, first):
        # One worker serves both requests; the second (mulopII after
        # mulop-dc or the reverse) must answer what a map of a fresh
        # build gives.
        async def scenario(service):
            await service.handle(
                req({"source": "alu2",
                     "config": {"use_dontcares": first}}),
                lambda frame: None)
            final = await service.handle(
                req({"source": "alu2", "include_blif": True,
                     "config": {"use_dontcares": not first}}),
                lambda frame: None)
            return final, service.stats()["pool"]

        final, pool = run_with_service(scenario, workers=1)
        assert pool["completed"] == 2
        assert final["status"] == "ok" and final["cache_hit"] is False
        assert final["result"]["verified"] is True
        ref = map_to_xc3000(benchmark("alu2"),
                            use_dontcares=not first).to_record()
        assert final["result"]["blif"] == ref["blif"]

    def test_blif_dropped_unless_requested(self):
        async def scenario(service):
            return await service.handle(req({"source": "xor5"}),
                                        lambda frame: None)

        final = run_with_service(scenario)
        assert final["status"] == "ok"
        assert "blif" not in final["result"]

    def test_bad_source_is_typed_not_fatal(self):
        from repro.serve.protocol import BadSource

        async def scenario(service):
            body = ".model m\n.inputs a\n.outputs y\n"  # y undefined
            with pytest.raises(BadSource):
                await service.handle(
                    req({"source": {"kind": "blif", "body": body}}),
                    lambda frame: None)
            # The service is still healthy after the typed failure.
            final = await service.handle(req({"source": "rd53"}),
                                         lambda frame: None)
            return final

        final = run_with_service(scenario)
        assert final["status"] == "ok"


class TestCacheReadThrough:
    def test_repeat_request_never_touches_a_worker(self, tmp_path):
        frames = []

        async def scenario(service):
            first = await service.handle(req({"source": "rd53"}),
                                         lambda frame: None)
            dispatched = service.pool.stats()["dispatched"]
            second = await service.handle(
                req({"source": "rd53", "stream": True, "id": "r2"}),
                frames.append)
            return first, second, dispatched, \
                service.pool.stats()["dispatched"]

        first, second, before, after = run_with_service(
            scenario, cache=ResultCache(tmp_path / "cache"))
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["result"] == first["result"]
        assert after == before, "cache hit must not dispatch a worker"
        assert any(frame["event"] == "cache" for frame in frames)
        assert all(frame["id"] == "r2" for frame in frames)

    def test_only_ok_results_are_cached(self, tmp_path):
        async def scenario(service):
            degraded = await service.handle(
                req({"source": "rd53", "test_hook": "hang:60",
                     "timeout": 0.5}),
                lambda frame: None)
            # Same cache key as a clean request for the same job —
            # the degraded record must not have poisoned it.
            clean = await service.handle(req({"source": "rd53"}),
                                         lambda frame: None)
            return degraded, clean

        degraded, clean = run_with_service(
            scenario, cache=ResultCache(tmp_path / "cache"), workers=1)
        assert degraded["status"] == "degraded"
        assert clean["status"] == "ok" and clean["cache_hit"] is False
        assert "degraded" not in clean["result"]


class TestSingleFlight:
    def test_identical_concurrent_requests_share_one_computation(self):
        async def scenario(service):
            a, b, c = await asyncio.gather(
                service.handle(req({"source": "rd84"}), lambda f: None),
                service.handle(req({"source": "rd84"}), lambda f: None),
                service.handle(req({"source": "rd84"}), lambda f: None))
            return a, b, c, service.counters["coalesced"], \
                service.pool.stats()["dispatched"]

        a, b, c, coalesced, dispatched = run_with_service(scenario,
                                                          workers=1)
        assert a["status"] == b["status"] == c["status"] == "ok"
        assert a["result"] == b["result"] == c["result"]
        assert coalesced == 2
        assert dispatched == 1, "three riders, one worker dispatch"

    def test_chaos_requests_fly_alone(self):
        # A test_hook request must never be coalesced with (or serve
        # as the flight for) an innocent identical request.
        async def scenario(service):
            a, b = await asyncio.gather(
                service.handle(req({"source": "rd53",
                                    "test_hook": "crash"}),
                               lambda f: None),
                service.handle(req({"source": "rd53",
                                    "test_hook": "crash"}),
                               lambda f: None))
            return a, b, service.counters["coalesced"]

        a, b, coalesced = run_with_service(scenario, retries=0)
        assert coalesced == 0
        assert a["status"] == b["status"] == "degraded"


class TestAdmissionControl:
    @staticmethod
    async def _fill(service):
        """Occupy the single worker and the depth-1 queue."""
        hog = asyncio.ensure_future(service.handle(
            req({"source": "rd53", "test_hook": "hang:2"}),
            lambda f: None))
        while service._busy < 1:
            await asyncio.sleep(0.01)
        queued = asyncio.ensure_future(service.handle(
            req({"source": "xor5"}), lambda f: None))
        while len(service.queue) < 1:
            await asyncio.sleep(0.01)
        return hog, queued

    def test_overflow_sheds_to_verified_degraded_result(self):
        frames = []

        async def scenario(service):
            hog, queued = await self._fill(service)
            shed = await service.handle(
                req({"source": "rd73", "stream": True}), frames.append)
            results = await asyncio.gather(hog, queued)
            return shed, results, dict(service.counters)

        shed, results, counters = run_with_service(
            scenario, workers=1, queue_depth=1, shed="degrade")
        assert shed["status"] == "degraded"
        assert "load shed" in shed["error"]
        # Degraded-but-verified: the fallback is still a correct
        # mapping of the requested function.
        assert shed["result"]["verified"] is True
        assert shed["result"]["degraded"] is True
        assert counters["shed"] == 1
        assert any(frame["event"] == "shed" for frame in frames)
        assert all(r["status"] in ("ok", "degraded") for r in results)

    def test_reject_policy_raises_typed_overloaded(self):
        async def scenario(service):
            hog, queued = await self._fill(service)
            with pytest.raises(Overloaded):
                await service.handle(req({"source": "rd73"}),
                                     lambda f: None)
            await asyncio.gather(hog, queued)
            return dict(service.counters)

        counters = run_with_service(scenario, workers=1, queue_depth=1,
                                    shed="reject")
        assert counters["rejected"] == 1


class TestFailureLadder:
    def test_crash_is_retried_then_succeeds(self):
        frames = []

        async def scenario(service):
            final = await service.handle(
                req({"source": "rd53", "test_hook": "crash:1",
                     "stream": True}),
                frames.append)
            return final, dict(service.counters), \
                service.pool.stats()["dispatched"]

        final, counters, dispatched = run_with_service(scenario,
                                                       retries=2)
        assert final["status"] == "ok"
        assert counters["retries"] == 1
        assert dispatched == 2  # attempt 1 crashed, attempt 2 ran
        kinds = [frame["event"] for frame in frames]
        assert "retry" in kinds
        assert kinds.index("dispatch") < kinds.index("retry")

    def test_retries_exhausted_degrades(self):
        async def scenario(service):
            return await service.handle(
                req({"source": "rd53", "test_hook": "crash",
                     "retries": 1}),
                lambda f: None)

        final = run_with_service(scenario)
        assert final["status"] == "degraded"
        assert "retries exhausted" in final["error"]
        assert final["result"]["degraded"] is True

    def test_timeout_degrades_without_retry(self):
        async def scenario(service):
            final = await service.handle(
                req({"source": "rd53", "test_hook": "hang:60",
                     "timeout": 0.5}),
                lambda f: None)
            return final, service.pool.stats()["dispatched"]

        final, dispatched = run_with_service(scenario, workers=1,
                                             retries=3)
        assert final["status"] == "degraded"
        assert dispatched == 1, "timeouts are deterministic: no retry"
        assert final["result"]["verified"] is True

    def test_degraded_result_matches_batch_fallback(self):
        from repro.runtime import make_job, source_from_name
        from repro.runtime.scheduler import degraded_record

        async def scenario(service):
            return await service.handle(
                req({"source": "xor5", "test_hook": "crash",
                     "retries": 0, "include_blif": True}),
                lambda f: None)

        final = run_with_service(scenario)
        ref = degraded_record(make_job(source_from_name("xor5")))
        assert final["result"] == ref


class TestLifecycle:
    def test_draining_service_refuses_new_work(self):
        async def scenario(service):
            service._draining = True
            with pytest.raises(ShuttingDown):
                await service.handle(req({"source": "rd53"}),
                                     lambda f: None)
            return dict(service.counters)

        counters = run_with_service(scenario)
        assert counters["ok"] == 0

    def test_stats_document_shape(self, tmp_path):
        async def scenario(service):
            await service.handle(req({"source": "rd53"}),
                                 lambda f: None)
            return service.stats()

        stats = run_with_service(
            scenario, cache=ResultCache(tmp_path / "cache"))
        assert stats["counters"]["requests"] == 1
        assert stats["counters"]["ok"] == 1
        assert stats["pool"]["completed"] == 1
        assert stats["queue"]["pushed"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["uptime_s"] >= 0

    def test_stats_surface_cache_latency(self, tmp_path):
        # The /metrics document carries the cache latency percentiles
        # (counter_stats — no disk walk on a poll).
        async def scenario(service):
            for _ in range(2):  # second request: cache hit
                await service.handle(req({"source": "rd53"}),
                                     lambda f: None)
            return service.stats()

        stats = run_with_service(
            scenario, cache=ResultCache(tmp_path / "cache"))
        cache = stats["cache"]
        assert cache["hit_latency"]["samples"] == 1
        assert cache["miss_latency"]["samples"] == 1
        assert cache["hit_latency"]["p50_ms"] > 0.0
        assert "entries" not in cache  # no disk walk on a poll
