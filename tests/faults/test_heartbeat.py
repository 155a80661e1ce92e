"""Worker heartbeats: hung vs slow-but-alive discrimination.

A worker beats over the result pipe while its liveness pulse advances
(profiler phase transitions + coarse runtime checkpoints).  The
scheduler kills a worker that goes silent for ``hang_grace_s`` — well
before any wall-clock timeout — but must leave a slow, still-beating
worker alone.
"""

import time

import pytest

from repro.runtime import BatchScheduler, make_job, source_from_name

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


class TestHangDetection:
    def test_hung_worker_killed_before_timeout(self):
        # The job sleeps 60 s; the wall-clock timeout is 30 s; only the
        # heartbeat grace can end this quickly.
        job = make_job(source_from_name("rd53"), test_hook="hang:60")
        sched = BatchScheduler(workers=1, timeout=30.0, retries=1,
                               heartbeat_s=0.2, hang_grace_s=1.0)
        started = time.monotonic()
        (res,) = sched.run([job])
        assert time.monotonic() - started < 15.0
        assert res.status == "degraded"
        assert res.hung is True
        assert "hung" in res.error and "no heartbeat" in res.error
        assert res.retries == 0  # hangs are deterministic: never retry
        assert res.result["degraded"] is True
        assert res.result["verified"] is True

    def test_slow_but_alive_worker_survives_grace(self):
        # The busy hook works for 3 s — twice the grace — before duke2
        # maps, but the liveness pulse keeps advancing and the worker
        # keeps beating, so hang detection must not fire.
        job = make_job(source_from_name("duke2"), test_hook="busy:3")
        sched = BatchScheduler(workers=1, retries=0,
                               heartbeat_s=0.1, hang_grace_s=1.5)
        (res,) = sched.run([job])
        assert res.status == "ok"
        assert res.hung is False
        assert res.beats >= 5  # liveness actually flowed
        assert res.result["verified"] is True

    def test_heartbeat_zero_disables_hang_detection(self):
        # With beats off the grace must not fire (everything would look
        # silent); only the wall-clock timeout ends the hang.
        job = make_job(source_from_name("rd53"), test_hook="hang:60")
        sched = BatchScheduler(workers=1, timeout=1.0, retries=0,
                               heartbeat_s=0, hang_grace_s=0.3)
        (res,) = sched.run([job])
        assert res.status == "degraded"
        assert res.hung is False
        assert "timeout" in res.error

    def test_no_grace_means_no_hang_detection(self):
        # hang_grace_s=None (the default): beats are collected but never
        # acted on; the timeout path handles the hang as before.
        job = make_job(source_from_name("rd53"), test_hook="hang:60")
        sched = BatchScheduler(workers=1, timeout=1.0, retries=0,
                               heartbeat_s=0.2)
        (res,) = sched.run([job])
        assert res.status == "degraded"
        assert res.hung is False
        assert "timeout" in res.error


class TestObservability:
    def test_beats_and_hung_surface_in_rows_and_totals(self):
        from repro.runtime import summarize_rows
        jobs = [make_job(source_from_name("xor5")),
                make_job(source_from_name("rd53"), test_hook="hang:60")]
        sched = BatchScheduler(workers=2, retries=0,
                               heartbeat_s=0.2, hang_grace_s=1.0)
        results = sched.run(jobs)
        rows = [r.as_dict() for r in results]
        assert rows[0]["hung"] is False
        assert rows[1]["hung"] is True
        assert all("beats" in row for row in rows)
        totals = summarize_rows(rows)
        assert totals["hung"] == 1
        assert totals["ok"] == 1 and totals["degraded"] == 1
