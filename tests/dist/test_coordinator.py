"""Distributed coordinator semantics: sharding, stealing, loss.

The acceptance bar for every scenario is the same: the merged rows are
what a single-host :class:`BatchScheduler` run over the same manifest
produces, byte-identically (up to the volatile timing fields), no
matter which nodes executed what or died when.
"""

import json
import os
import socket
import subprocess
import threading
import time

import pytest

from repro.decomp.submemo import SUBMEMO_REMOTE_ENV
from repro.dist.coordinator import DistCoordinator, parse_nodes
from repro.dist.node import NodeServer
from repro.dist.wire import recv_frame, send_frame
from repro.runtime import jobspec
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.jobspec import make_job, source_from_name
from repro.runtime.scheduler import BatchScheduler
from tests.dist.test_membership import spawn_node

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12

CIRCUITS = ("xor5", "rd53", "majority", "rd73")


def make_jobs(names=CIRCUITS):
    return [make_job(source_from_name(name)) for name in names]


def stable(rows):
    out = []
    for row in sorted(rows, key=lambda r: r["index"]):
        row = dict(row)
        row["queue_wait_s"] = 0.0
        row["exec_s"] = 0.0
        row["beats"] = 0
        out.append(row)
    return out


def single_host_rows(names=CIRCUITS, cache=None):
    scheduler = BatchScheduler(workers=2, cache=cache, heartbeat_s=0.5)
    return [r.as_dict() for r in scheduler.run(make_jobs(names))]


@pytest.fixture
def two_nodes():
    nodes, threads = [], []
    for _ in range(2):
        srv = NodeServer(port=0, workers=2, heartbeat_s=0.5).start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        nodes.append(srv)
        threads.append(thread)
    yield nodes
    for srv in nodes:
        srv.close()
    for thread in threads:
        thread.join(timeout=5.0)


class TestByteIdentity:
    def test_two_nodes_match_single_host(self, two_nodes, tmp_path):
        coordinator = DistCoordinator(
            [(n.host, n.port) for n in two_nodes],
            cache=ResultCache(tmp_path / "dist-cache"))
        rows = coordinator.run(make_jobs())
        assert [r["status"] for r in rows] == ["ok"] * len(CIRCUITS)
        reference = single_host_rows(
            cache=ResultCache(tmp_path / "single-cache"))
        assert json.dumps(stable(rows)) == json.dumps(stable(reference))

    def test_rows_arrive_in_submission_order(self, two_nodes):
        coordinator = DistCoordinator(
            [(n.host, n.port) for n in two_nodes])
        rows = coordinator.run(make_jobs())
        assert [r["index"] for r in rows] == list(range(len(CIRCUITS)))

    def test_warm_second_run_settles_without_nodes(self, two_nodes,
                                                   tmp_path):
        cache = ResultCache(tmp_path / "cache")
        addresses = [(n.host, n.port) for n in two_nodes]
        first = DistCoordinator(addresses, cache=cache)
        first.run(make_jobs())
        for srv in two_nodes:
            srv.close()  # the store alone must carry the second run
        second = DistCoordinator(addresses, cache=cache)
        rows = second.run(make_jobs())
        assert all(r["cache_hit"] for r in rows)
        assert all(r["status"] == "ok" for r in rows)

    def test_event_stream_relayed(self, two_nodes):
        events = []
        lock = threading.Lock()
        coordinator = DistCoordinator(
            [(n.host, n.port) for n in two_nodes])

        def on_event(event):
            with lock:
                events.append(event)

        coordinator.run(make_jobs(("xor5", "rd53")), on_event=on_event)
        kinds = {e.kind for e in events}
        assert "dispatch" in kinds and "result" in kinds
        assert {e.index for e in events} == {0, 1}


class TestStealing:
    def _skewed_names(self, count=4):
        """Benchmark circuits whose cache keys all shard to node 0 of
        2 — computed, not guessed, so the test is deterministic."""
        picked = []
        for name in ("xor5", "rd53", "majority", "rd73", "rd84", "9sym",
                     "con1", "misex1", "squar5", "z4ml"):
            job = make_job(source_from_name(name))
            func = jobspec.build_function(job["source"])
            key = cache_key(func.canonical_key(), job["flow"],
                            job["config"])
            if int(key[:8], 16) % 2 == 0:
                picked.append(name)
            if len(picked) == count:
                return picked
        pytest.skip("fewer than %d circuits shard to node 0" % count)

    def test_idle_node_steals_from_skewed_shard(self, tmp_path):
        names = self._skewed_names()
        nodes = []
        for _ in range(2):
            srv = NodeServer(port=0, workers=1, heartbeat_s=0.5).start()
            threading.Thread(target=srv.serve_forever,
                             daemon=True).start()
            nodes.append(srv)
        try:
            coordinator = DistCoordinator(
                [(n.host, n.port) for n in nodes],
                cache=ResultCache(tmp_path / "cache"))
            rows = coordinator.run(make_jobs(names))
        finally:
            for srv in nodes:
                srv.close()
        # Node 1's shard is empty by construction; its window refill
        # must have stolen from node 0's tail.
        assert coordinator.steals >= 1
        assert all(r["status"] == "ok" for r in rows)
        reference = single_host_rows(
            names, cache=ResultCache(tmp_path / "single-cache"))
        assert json.dumps(stable(rows)) == json.dumps(stable(reference))


def flaky_node(accepted_jobs=1):
    """A fake node that answers hello, swallows ``accepted_jobs`` job
    frames without ever producing rows, then drops the connection —
    the shape of a node dying mid-shard."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    port = sock.getsockname()[1]

    def serve():
        conn, _ = sock.accept()
        try:
            hello = recv_frame(conn)
            assert hello["op"] == "hello"
            send_frame(conn, {"op": "hello", "ok": True, "workers": 2})
            for _ in range(accepted_jobs):
                frame = recv_frame(conn)
                if frame is None:
                    return
        finally:
            conn.close()
            sock.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return ("127.0.0.1", port), thread


class TestNodeLoss:
    def test_mid_run_death_reassigns_and_completes(self, two_nodes,
                                                   tmp_path):
        flaky_addr, thread = flaky_node(accepted_jobs=2)
        real = two_nodes[0]
        # rpc_tries=1 pins the immediate loss ladder (no redial grace);
        # the redial path has its own suite in test_membership.py.
        coordinator = DistCoordinator(
            [flaky_addr, (real.host, real.port)],
            cache=ResultCache(tmp_path / "cache"), rpc_tries=1)
        rows = coordinator.run(make_jobs())
        thread.join(timeout=5.0)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.node_losses == 1
        assert coordinator.reassigned >= 1
        reference = single_host_rows(
            cache=ResultCache(tmp_path / "single-cache"))
        assert json.dumps(stable(rows)) == json.dumps(stable(reference))

    def test_connect_refused_node_never_counts_as_alive(self, two_nodes,
                                                        tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        real = two_nodes[0]
        coordinator = DistCoordinator(
            [("127.0.0.1", dead_port), (real.host, real.port)],
            cache=ResultCache(tmp_path / "cache"),
            connect_timeout_s=2.0)
        rows = coordinator.run(make_jobs())
        assert all(r["status"] == "ok" for r in rows)
        stats = coordinator.stats()
        dead, alive = stats["nodes"]
        assert dead["alive"] is False
        assert alive["executed"] == len(CIRCUITS)

    def test_all_nodes_dead_falls_back_to_local(self, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        coordinator = DistCoordinator(
            [("127.0.0.1", dead_port)],
            cache=ResultCache(tmp_path / "cache"),
            connect_timeout_s=2.0)
        names = ("xor5", "rd53")
        rows = coordinator.run(make_jobs(names))
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.local_fallback_jobs == len(names)
        reference = single_host_rows(
            names, cache=ResultCache(tmp_path / "single-cache"))
        assert json.dumps(stable(rows)) == json.dumps(stable(reference))


class TestDsdSwitch:
    def test_node_follows_the_jobs_dsd_switch(self, monkeypatch, tmp_path):
        # The node starts with DSD on; the batch is made with it off.
        # The switch rides on each job, so the node maps and keys the
        # jobs exactly as a single-host DSD-off run does (rd84 and alu2
        # both map differently with DSD on).
        names = ("rd84", "alu2")
        monkeypatch.delenv("REPRO_DSD", raising=False)
        proc, address = spawn_node()
        monkeypatch.setenv("REPRO_DSD", "off")
        cache = ResultCache(tmp_path / "dist-cache")
        try:
            coordinator = DistCoordinator([address], cache=cache)
            rows = coordinator.run(make_jobs(names))
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
        assert coordinator.stats()["nodes"][0]["executed"] == len(names)
        assert json.dumps(stable(rows)) == \
            json.dumps(stable(single_host_rows(names)))
        for name in names:
            func = jobspec.build_function(source_from_name(name))
            key = cache_key(func.canonical_key(), "map", {}, dsd=False)
            assert cache.get(key) is not None


class TestSessionSubmemoRemote:
    def test_each_session_points_its_workers_at_its_own_cache(
            self, tmp_path, monkeypatch):
        # Workers log the sub-ISF memo remote they were forked with.
        log = tmp_path / "remote.log"
        execute = jobspec.execute_job

        def logged(job, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.environ.get(SUBMEMO_REMOTE_ENV)}\n")
            return execute(job, *args, **kwargs)

        monkeypatch.setattr(jobspec, "execute_job", logged)
        monkeypatch.delenv(SUBMEMO_REMOTE_ENV, raising=False)
        srv = NodeServer(port=0, workers=1, heartbeat_s=0.5).start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        addresses = []
        try:
            for run in range(2):
                coordinator = DistCoordinator(
                    [(srv.host, srv.port)],
                    cache=ResultCache(tmp_path / f"cache-{run}"))
                [row] = coordinator.run(make_jobs(("xor5",)))
                assert row["status"] == "ok" and not row["cache_hit"]
                address = (f"{coordinator.cache_host}:"
                           f"{coordinator._cache_server.port}")
                assert log.read_text().split() == [address]
                log.unlink()
                # The session ends just after the coordinator's bye.
                deadline = time.monotonic() + 10.0
                while (SUBMEMO_REMOTE_ENV in os.environ
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert SUBMEMO_REMOTE_ENV not in os.environ
                addresses.append(address)
        finally:
            srv.close()
            thread.join(timeout=5.0)
        assert addresses[0] != addresses[1]


class TestClaims:
    def test_duplicate_result_is_counted_not_recorded_twice(self):
        coordinator = DistCoordinator([("127.0.0.1", 1)])
        coordinator._jobs = [make_job(source_from_name("xor5"))]
        link = coordinator._links[0]
        link.alive = False  # _refill must not touch the dead socket
        seen = []
        coordinator._on_row = seen.append
        row = {"index": 0, "status": "ok"}
        coordinator._claim(link, 0, dict(row))
        coordinator._claim(link, 0, dict(row, status="degraded"))
        assert coordinator.dup_results == 1
        assert len(seen) == 1
        assert coordinator._rows[0]["status"] == "ok"  # first row won


class TestParseNodes:
    def test_happy_path(self):
        assert parse_nodes("a:1, b:2,127.0.0.1:9000") == [
            ("a", 1), ("b", 2), ("127.0.0.1", 9000)]

    def test_default_host(self):
        assert parse_nodes(":7000") == [("127.0.0.1", 7000)]

    @pytest.mark.parametrize("bad", ["", " , ", "hostonly", "h:porty",
                                     "h:"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_nodes(bad)
