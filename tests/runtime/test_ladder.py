"""One executor, one failure ladder, on every tier.

Batch, ``repro serve`` and dist nodes all run jobs on a
:class:`~repro.runtime.pool.WorkerPool` and settle them through
:func:`~repro.runtime.scheduler.run_ladder`, so the same job must reach
the same status and error text whichever tier runs it — and a batch
must reuse its pool's workers instead of forking one process per job.
"""

import asyncio
import gc
import multiprocessing
import sys
import threading

import pytest

from repro.dist.coordinator import DistCoordinator
from repro.dist.node import NodeServer
from repro.boolfunc.spec import MultiFunction
from repro.runtime import (
    BatchScheduler,
    ResultCache,
    make_job,
    source_from_name,
)
from repro.serve import DecompositionService
from repro.serve.protocol import parse_request

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12

#: Per-job wall-clock budget: ends ``hang:60`` on every tier.
TIMEOUT = 1.0
CIRCUIT = "rd53"


def _job(hook):
    return make_job(source_from_name(CIRCUIT), test_hook=hook)


def batch_row(hook):
    scheduler = BatchScheduler(workers=1, timeout=TIMEOUT, retries=1,
                               retry_backoff_s=0.01, heartbeat_s=0.2)
    [result] = scheduler.run([_job(hook)])
    return result.as_dict()


def served_frame(hook):
    async def main():
        service = DecompositionService(workers=1, timeout=TIMEOUT,
                                       retries=1, retry_backoff_s=0.01,
                                       heartbeat_s=0.2)
        try:
            request = {"source": CIRCUIT}
            if hook is not None:
                request["test_hook"] = hook
            return await service.handle(
                parse_request(request, allow_test_hooks=True),
                lambda frame: None)
        finally:
            await service.drain(timeout=15)

    return asyncio.run(main())


@pytest.fixture(scope="module")
def node():
    srv = NodeServer(port=0, workers=1, heartbeat_s=0.2).start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.close()
    thread.join(timeout=5.0)


def node_row(node, hook):
    coordinator = DistCoordinator([(node.host, node.port)],
                                  timeout=TIMEOUT, retries=1,
                                  heartbeat_s=0.2)
    [row] = coordinator.run([_job(hook)])
    assert coordinator.local_fallback_jobs == 0
    return row


class TestOneLadderAcrossTiers:
    @pytest.mark.parametrize("hook, status, retries", [
        (None, "ok", 0),
        ("crash:1", "ok", 1),
        ("crash", "degraded", 1),
        ("hang:60", "degraded", 0),
    ], ids=["clean", "crash-once", "crash-always", "hang"])
    def test_same_status_and_error_on_every_tier(self, node, hook,
                                                 status, retries):
        batch = batch_row(hook)
        served = served_frame(hook)
        dist = node_row(node, hook)
        assert batch["status"] == served["status"] == dist["status"] \
            == status
        assert batch["error"] == served.get("error") == dist["error"]
        assert batch["retries"] == dist["retries"] == retries
        assert batch["degraded"] == dist["degraded"] \
            == (status == "degraded")
        if hook == "crash":
            assert batch["error"].endswith(", retries exhausted")
        if hook == "hang:60":
            assert batch["error"] == f"timeout after {TIMEOUT:.1f}s"


class TestConcurrentLadders:
    def test_more_ladders_than_cores_settle_every_job(self):
        # Twelve ladders share one four-worker pool, one jitter stream
        # and the result list; a lost update or a crossed row would
        # show here.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            names = ("xor5", "rd53", "majority", "z4ml") * 3
            hooks = [None, "crash:1"] * 6
            events = []
            jobs = [make_job(source_from_name(name), test_hook=hook,
                             job_id=f"{name}-{i}")
                    for i, (name, hook) in enumerate(zip(names, hooks))]
            results = BatchScheduler(workers=4, retries=1,
                                     retry_backoff_s=0.01,
                                     heartbeat_s=0.05).run(
                jobs, on_event=events.append)
        finally:
            sys.setswitchinterval(previous)
        assert [r.job_id for r in results] == [j["job_id"] for j in jobs]
        assert [r.index for r in results] == list(range(len(jobs)))
        assert all(r.status == "ok" for r in results)
        assert [r.retries for r in results] == [int(bool(h))
                                                for h in hooks]
        finals = [e.index for e in events if e.kind == "result"]
        assert sorted(finals) == list(range(len(jobs)))
        assert multiprocessing.active_children() == []


    def test_crash_backoff_leaves_the_worker_to_other_jobs(self):
        # One worker, a crash retry waiting out a >= 0.5 s backoff: the
        # clean job queued behind it runs during the backoff instead of
        # after the retry.
        events = []
        jobs = [make_job(source_from_name("rd53"), test_hook="crash:1",
                         job_id="crashes"),
                make_job(source_from_name("xor5"), job_id="clean")]
        results = BatchScheduler(workers=1, retries=1,
                                 retry_backoff_s=1.0,
                                 heartbeat_s=None).run(
            jobs, on_event=events.append)
        assert [(r.status, r.retries) for r in results] == [("ok", 1),
                                                             ("ok", 0)]
        order = [(e.kind, e.job_id, e.attempt) for e in events
                 if e.kind in ("dispatch", "result")]
        assert order.index(("result", "clean", 1)) \
            < order.index(("dispatch", "crashes", 2))

    def test_settled_jobs_free_their_functions_without_a_collection(
            self, tmp_path):
        # Ladder state must form no reference cycle: the functions a
        # batch built parent-side (BDD managers and all) go when run()
        # returns, not at the next full garbage collection.
        def built():
            return sum(isinstance(o, MultiFunction) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = built()
            jobs = [make_job(source_from_name(name))
                    for name in ("rd53", "xor5", "majority")]
            results = BatchScheduler(
                workers=2, cache=ResultCache(str(tmp_path))).run(jobs)
            assert [r.status for r in results] == ["ok"] * 3
            del results, jobs
            after = built()
        finally:
            gc.enable()
        assert after == before


class TestForkSafety:
    def test_fallback_never_overlaps_a_fork(self, monkeypatch):
        # A worker forked while a parent thread imports a module
        # inherits that import lock and hangs on its own first import
        # of the module; the fallback imports lazily, so it holds the
        # pool's fork lock.
        from repro.runtime import scheduler
        from repro.runtime.pool import FORK_LOCK

        held = []

        def record(job, func=None):
            held.append(FORK_LOCK.locked())
            return {"lut_count": 1}

        monkeypatch.setattr(scheduler, "degraded_record", record)
        res = scheduler.fallback(_job(None), "why")
        assert (res.status, res.error, held) == ("degraded", "why", [True])


class TestWorkerReuse:
    def test_clean_batch_forks_at_most_one_process_per_worker(self):
        # Every beat event samples the live job processes; a pool of
        # two reused workers never shows a third.
        pids = set()

        def on_event(event):
            if event.kind == "beat":
                pids.update(child.pid for child in
                            multiprocessing.active_children())

        names = ("rd53", "rd73", "rd84", "z4ml", "majority", "9sym")
        results = BatchScheduler(workers=2, heartbeat_s=0.05).run(
            [make_job(source_from_name(name)) for name in names],
            on_event=on_event)
        assert [r.status for r in results] == ["ok"] * len(names)
        assert pids, "a real decomposition must beat at 0.05s interval"
        assert len(pids) <= 2, pids
        assert multiprocessing.active_children() == []
