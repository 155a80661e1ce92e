"""End-to-end daemon tests over real sockets.

The daemon runs on a background thread with its own event loop; the
tests are the client.  This exercises the full stack — framing, fault
sites, the service core, the worker pool — exactly the way an external
caller would, including the acceptance bar: a SIGKILLed worker
mid-request never takes the daemon down.
"""

import json
import os
import signal
import socket
import time

import multiprocessing

import pytest

from tests.serve.conftest import start_daemon

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12


class TestUnixFrontend:
    def test_roundtrip_ok(self, daemon):
        frames = daemon.ask({"source": "rd53"})
        assert len(frames) == 1
        final = frames[0]
        assert final["event"] == "result" and final["status"] == "ok"
        assert final["cache_hit"] is False
        assert final["result"]["verified"] is True
        assert "blif" not in final["result"]

    def test_streaming_emits_progress_then_result(self, daemon):
        frames = daemon.ask({"source": "rd84", "stream": True,
                             "id": "s1"})
        kinds = [frame["event"] for frame in frames]
        assert kinds[0] == "queued"
        assert "dispatch" in kinds
        assert kinds[-1] == "result"
        assert kinds.index("queued") < kinds.index("dispatch")
        assert all(frame["id"] == "s1" for frame in frames)
        assert frames[-1]["status"] == "ok"

    def test_repeat_request_is_a_cache_hit_with_zero_dispatches(
            self, daemon):
        first = daemon.ask({"source": "rd53"})[0]
        dispatched = daemon.service.pool.stats()["dispatched"]
        second = daemon.ask({"source": "rd53"})[0]
        assert first["cache_hit"] is False
        assert second["cache_hit"] is True
        assert second["status"] == "ok"
        assert second["result"] == first["result"]
        assert daemon.service.pool.stats()["dispatched"] == dispatched
        assert daemon.service.counters["cache_hits"] == 1

    def test_pipelined_requests_on_one_connection(self, daemon):
        frames = daemon.ask({"source": "rd53", "id": "a"},
                            {"source": "xor5", "id": "b"})
        by_id = {frame["id"]: frame for frame in frames}
        assert set(by_id) == {"a", "b"}
        assert all(frame["status"] == "ok" for frame in by_id.values())

    def test_served_result_matches_repro_map(self, daemon):
        from repro.bench.registry import benchmark
        from repro.core.api import map_to_xc3000
        final = daemon.ask({"source": "xor5",
                            "include_blif": True})[0]
        ref = map_to_xc3000(benchmark("xor5")).to_record()
        assert final["result"]["blif"] == ref["blif"]
        assert final["result"]["clb_count"] == ref["clb_count"]


class TestClientsCannotKillTheDaemon:
    BAD_LINES = [
        b'{"source": "rd84"',            # truncated JSON
        b"\xff\xfe binary garbage",      # not UTF-8
        b"source=rd84",                  # not JSON
        b'["not", "an", "object"]',      # wrong JSON shape
        b'{"source": "rd53", "bogus": 1}',  # unknown field
        b'{"source": "no-such-circuit"}',   # unknown benchmark
        b'{"source": "pla:/etc/passwd"}',   # files not enabled
    ]

    def test_malformed_frames_get_typed_errors(self, daemon):
        for raw in self.BAD_LINES:
            frames = [json.loads(line) for line in
                      daemon.raw(raw + b"\n").splitlines()]
            assert len(frames) == 1, raw
            assert frames[0]["event"] == "error", raw
            assert frames[0]["error"] in (
                "bad-frame", "bad-request", "bad-source"), raw
        # After all of that abuse, the daemon still serves real work.
        assert daemon.ask({"source": "rd53"})[0]["status"] == "ok"
        assert daemon.daemon.bad_frames == len(self.BAD_LINES)

    def test_mixed_good_and_bad_lines_on_one_connection(self, daemon):
        frames = daemon.ask({"source": "rd53", "id": "good"},
                            {"source": "nope", "id": "bad"})
        by_id = {frame.get("id"): frame for frame in frames}
        assert by_id["good"]["status"] == "ok"
        assert by_id["bad"]["event"] == "error"
        assert by_id["bad"]["error"] == "bad-source"

    def test_oversized_frame_is_typed_and_closes(self, tmp_path):
        harness = start_daemon(tmp_path, max_frame_bytes=4096)
        try:
            huge = json.dumps(
                {"source": {"kind": "blif",
                            "body": "x" * 8192}}).encode()
            frames = [json.loads(line) for line in
                      harness.raw(huge + b"\n").splitlines()]
            assert frames[-1]["event"] == "error"
            assert frames[-1]["error"] == "too-large"
            # A fresh connection still works.
            assert harness.ask({"source": "rd53"})[0]["status"] == "ok"
        finally:
            harness.stop()

    def test_abrupt_disconnect_leaves_daemon_alive(self, daemon):
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(daemon.socket_path)
        sock.sendall(b'{"source": "rd84", "stream": true}\n')
        sock.close()  # walk away mid-request
        time.sleep(0.2)
        assert daemon.ask({"source": "rd53"})[0]["status"] == "ok"


class TestWorkerCrashContainment:
    def test_sigkilled_worker_mid_request_never_kills_the_daemon(
            self, daemon):
        # Occupy a worker with a slow request, SIGKILL that worker
        # mid-flight, and require (a) the daemon survives, (b) the
        # client still gets a settled, verified reply.
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(daemon.socket_path)
        sock.settimeout(120)
        sock.sendall(json.dumps(
            {"source": "rd53", "test_hook": "hang:30",
             "timeout": 5, "retries": 0, "stream": True}).encode()
            + b"\n")
        sock.shutdown(socket.SHUT_WR)
        # Wait until the job is dispatched to a worker, then shoot it.
        deadline = time.monotonic() + 30
        while daemon.service.pool.stats()["dispatched"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # Workers spawn lazily; find the one actually running the job.
        victim = None
        while victim is None:
            assert time.monotonic() < deadline
            victim = next((w.process.pid
                           for w in daemon.service.pool._pool
                           if w.busy and w.process.pid is not None),
                          None)
            time.sleep(0.02)
        time.sleep(0.2)
        os.kill(victim, signal.SIGKILL)

        buf = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
        sock.close()
        frames = [json.loads(line) for line in buf.splitlines()]
        final = frames[-1]
        assert final["event"] == "result"
        # retries=0: the crash degrades to the verified fallback.
        assert final["status"] == "degraded"
        assert final["result"]["verified"] is True
        # The daemon survived and replaced the dead worker.
        assert daemon.thread.is_alive()
        assert daemon.ask({"source": "xor5"})[0]["status"] == "ok"
        pids_after = set(daemon.service.pool.stats()["pids"])
        assert victim not in pids_after

    def test_crash_hook_retries_to_ok_over_the_wire(self, daemon):
        frames = daemon.ask({"source": "rd53", "test_hook": "crash:1",
                             "retries": 2, "stream": True})
        kinds = [frame["event"] for frame in frames]
        assert "retry" in kinds
        assert frames[-1]["status"] == "ok"
        assert daemon.thread.is_alive()


class TestHttpFrontend:
    def test_post_decompose(self, daemon):
        status, body = daemon.http("/decompose", {"source": "rd53"})
        assert status == 200
        final = json.loads(body)
        assert final["status"] == "ok"
        assert final["result"]["verified"] is True

    def test_streaming_chunked_ndjson(self, daemon):
        status, body = daemon.http("/decompose",
                                   {"source": "rd53", "stream": True})
        assert status == 200
        frames = [json.loads(line) for line in body.splitlines()
                  if line.strip()]
        kinds = [frame["event"] for frame in frames]
        assert kinds[0] == "queued" and kinds[-1] == "result"

    def test_typed_http_statuses(self, daemon):
        cases = [
            ({"source": "no-such-circuit"}, 422),
            ({"source": "rd53", "bogus": 1}, 400),
            ({}, 400),
        ]
        for payload, expected in cases:
            status, body = daemon.http("/decompose", payload)
            assert status == expected, payload
            assert json.loads(body)["event"] == "error"

    def test_routes_and_methods(self, daemon):
        status, _ = daemon.http("/nope")
        assert status == 404
        status, _ = daemon.http("/decompose", method="GET")
        assert status == 405

    def test_healthz_and_metrics(self, daemon):
        daemon.ask({"source": "rd53"})
        status, body = daemon.http("/healthz")
        assert status == 200 and json.loads(body)["ok"] is True
        status, body = daemon.http("/metrics")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["command"] == "serve"
        assert metrics["counters"]["requests"] >= 1
        assert metrics["server"]["connections"] >= 1
        assert metrics["pool"]["workers"] == 2


class TestGracefulDrain:
    def test_stop_drains_cleanly(self, tmp_path):
        harness = start_daemon(tmp_path)
        assert harness.ask({"source": "rd53"})[0]["status"] == "ok"
        harness.stop()
        assert not os.path.exists(harness.socket_path)
        assert multiprocessing.active_children() == []

    def test_draining_daemon_refuses_new_work(self, tmp_path):
        harness = start_daemon(tmp_path)
        try:
            harness.service._draining = True
            final = harness.ask({"source": "rd53"})[0]
            assert final["event"] == "error"
            assert final["error"] == "shutting-down"
        finally:
            harness.service._draining = False
            harness.stop()


class TestInheritedFdGuard:
    def test_child_closes_only_fds_that_still_name_their_socket(self):
        # A tracked number whose socket closed (a stopped daemon's
        # listener) can be reused by the next worker's own pipe; the
        # after-fork close must leave that pipe open.
        from repro.serve.daemon import _InheritedFdGuard

        guard = _InheritedFdGuard()
        live, stale = socket.socketpair()
        number = stale.fileno()
        guard.add(live.fileno())
        guard.add(number)
        stale.close()
        read_fd, write_fd = os.pipe()
        if number not in (read_fd, write_fd):
            os.dup2(read_fd, number)  # the number now names a pipe
        try:
            guard._close_in_child()
            os.fstat(number)  # the pipe survived
            with pytest.raises(OSError):
                os.fstat(live.fileno())  # the live socket was closed
        finally:
            for fd in {read_fd, write_fd, number}:
                os.close(fd)
            live.detach()
