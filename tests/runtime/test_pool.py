"""Tests for the persistent worker pool and its shared primitives."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.runtime import make_job, source_from_name
from repro.runtime.pool import (
    JobTimeout,
    PoolClosed,
    ProgressEvent,
    WorkerCrash,
    WorkerPool,
    resolve_workers,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


def _job(name, **kwargs):
    return make_job(source_from_name(name), **kwargs)


class TestResolveWorkers:
    def test_none_is_auto_and_silent(self):
        workers, note = resolve_workers(None)
        assert workers >= 1
        assert note is None

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_nonpositive_clamps_with_note(self, bad):
        workers, note = resolve_workers(bad)
        auto, _ = resolve_workers(None)
        assert workers == auto
        assert note is not None
        assert str(bad) in note and "clamped" in note

    def test_positive_passes_through_uncapped(self):
        workers, note = resolve_workers(3)
        assert workers == 3 and note is None
        # An explicit request above the auto cap is honored.
        workers, note = resolve_workers(64)
        assert workers == 64 and note is None


class TestProgressEventShape:
    def test_as_dict_drops_unset_fields(self):
        event = ProgressEvent(kind="dispatch", job_id="j", attempt=2)
        assert event.as_dict() == {"event": "dispatch", "job_id": "j",
                                   "attempt": 2}

    def test_as_dict_keeps_set_fields(self):
        event = ProgressEvent(kind="result", job_id="j", index=3,
                              status="ok", beats=2, detail="d")
        data = event.as_dict()
        assert data["index"] == 3 and data["status"] == "ok"
        assert data["beats"] == 2 and data["detail"] == "d"


class TestWorkerPool:
    def test_jobs_complete_and_workers_stay_warm(self):
        pool = WorkerPool(1, heartbeat_s=0.2)
        try:
            first = pool.submit(_job("rd53")).result(timeout=120)
            assert first["status"] == "ok"
            assert first["result"]["verified"] is True
            pid_after_first = pool.stats()["pids"]
            second = pool.submit(_job("rd53")).result(timeout=120)
            assert second["status"] == "ok"
            stats = pool.stats()
            # Same process served both jobs (the whole point of the
            # pool).
            assert stats["pids"] == pid_after_first
            assert stats["respawns"] == 0
            assert stats["dispatched"] == 2
            assert stats["completed"] == 2
        finally:
            pool.shutdown()
        assert multiprocessing.active_children() == []

    def test_results_match_batch_semantics(self):
        from repro.bench.registry import benchmark
        from repro.core.api import map_to_xc3000
        pool = WorkerPool(2)
        try:
            payload = pool.submit(_job("xor5")).result(timeout=120)
        finally:
            pool.shutdown()
        ref = map_to_xc3000(benchmark("xor5"))
        assert payload["result"]["lut_count"] == ref.lut_count
        assert payload["result"]["clb_count"] == ref.clb_count

    def test_crash_is_typed_and_pool_survives(self):
        pool = WorkerPool(1, heartbeat_s=0.2)
        try:
            future = pool.submit(_job("rd53", test_hook="crash"))
            with pytest.raises(WorkerCrash) as excinfo:
                future.result(timeout=120)
            assert excinfo.value.exitcode is not None
            # The pool respawns capacity: the next job still runs.
            after = pool.submit(_job("rd53")).result(timeout=120)
            assert after["status"] == "ok"
            assert pool.stats()["crashes"] == 1
            assert pool.stats()["respawns"] >= 1
        finally:
            pool.shutdown()
        assert multiprocessing.active_children() == []

    def test_timeout_is_typed_and_worker_replaced(self):
        pool = WorkerPool(1, heartbeat_s=0.1)
        try:
            future = pool.submit(_job("rd53", test_hook="hang:60"),
                                 timeout=0.5)
            with pytest.raises(JobTimeout):
                future.result(timeout=120)
            assert pool.stats()["timeouts"] == 1
            after = pool.submit(_job("rd53")).result(timeout=120)
            assert after["status"] == "ok"
        finally:
            pool.shutdown()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("path", ["timeout", "abort"])
    def test_kills_never_run_inherited_signal_handlers(self, tmp_path,
                                                       path):
        # A forked worker inherits its parent's SIGTERM handler (a dist
        # node's closes the node's listening socket); killing a
        # timed-out job, or every worker on an aborting shutdown, must
        # not run it.
        marker = tmp_path / "handler-ran"

        def handler(signum, frame):
            marker.write_text(str(os.getpid()))
            os._exit(0)

        previous = signal.signal(signal.SIGTERM, handler)
        try:
            pool = WorkerPool(1, heartbeat_s=0.1)
            try:
                if path == "timeout":
                    future = pool.submit(
                        _job("rd53", test_hook="hang:60"), timeout=0.5)
                    with pytest.raises(JobTimeout):
                        future.result(timeout=120)
                else:
                    future = pool.submit(_job("rd53", test_hook="hang:60"))
                    deadline = time.monotonic() + 60
                    while pool.stats()["busy"] < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.02)
                    pool.shutdown(drain=False)
                    with pytest.raises(PoolClosed):
                        future.result(timeout=10)
            finally:
                pool.shutdown()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert not marker.exists()
        assert multiprocessing.active_children() == []

    def test_start_hook_runs_before_the_hand_off_and_can_veto_it(self):
        # on_start fires on the dispatcher just before a worker gets the
        # attempt; a raise there fails the attempt with that exception
        # and no worker ever sees it.
        seen = []

        def veto(attempt):
            seen.append(attempt)
            raise MemoryError("no room")

        pool = WorkerPool(1, heartbeat_s=None)
        try:
            with pytest.raises(MemoryError):
                pool.submit(_job("rd53"), attempt=2,
                            on_start=veto).result(timeout=60)
            assert pool.stats()["dispatched"] == 0
            ok = pool.submit(_job("rd53"),
                             on_start=seen.append).result(timeout=120)
        finally:
            pool.shutdown()
        assert ok["status"] == "ok"
        assert seen == [2, 1]

    def test_events_stream_from_pool_jobs(self):
        events = []
        pool = WorkerPool(1, heartbeat_s=0.05)
        try:
            pool.submit(_job("rd53"),
                        on_event=events.append).result(timeout=120)
            deadline = time.monotonic() + 5
            while not events and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            pool.shutdown()
        kinds = [e.kind for e in events]
        assert kinds[0] == "dispatch"
        assert all(k in ("dispatch", "beat") for k in kinds)

    def test_submit_after_shutdown_is_typed(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(PoolClosed):
            pool.submit(_job("rd53"))

    def test_abort_fails_queued_futures(self):
        pool = WorkerPool(1, heartbeat_s=0.2)
        slow = pool.submit(_job("rd53", test_hook="hang:60"))
        queued = pool.submit(_job("rd73"))
        pool.shutdown(drain=False)
        with pytest.raises(PoolClosed):
            queued.result(timeout=10)
        with pytest.raises((PoolClosed, WorkerCrash)):
            slow.result(timeout=10)
        assert multiprocessing.active_children() == []
