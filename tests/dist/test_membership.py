"""Dynamic membership: late join, reconnect, duplicate refusal, redial.

The PR 8 topology was fixed at ``_connect_all`` time; these tests pin
the replacement contract:

* a node joining mid-batch (``serve_join`` against the coordinator's
  membership listener) becomes an immediate steal target and executes
  real work;
* a node whose session drops re-registers under the same ``node_id``
  and the batch completes with exactly one row per index (duplicates
  are deduped by the first-claim-wins index map);
* a second live registration under the same ``node_id`` is refused
  with a typed ``ok: false`` hello;
* a transient session loss on a *dialed* node is absorbed by bounded
  seeded-jitter redial (``rpc_retries``) instead of the loss ladder.

Byte-identity remains the acceptance bar throughout: whatever joined,
dropped, or reconnected, the merged rows equal a single-host run's.
"""

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.dist.coordinator import DistCoordinator
from repro.dist.node import NodeServer
from repro.dist.wire import connect, recv_frame, send_frame
from repro.runtime.jobspec import make_job, source_from_name
from repro.runtime.scheduler import BatchScheduler

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")  # fork-in-multithreaded on 3.12

CIRCUITS = ("xor5", "rd53", "majority", "misex1", "rd73", "rd84")


def make_jobs(names=CIRCUITS, hook=None):
    return [make_job(source_from_name(name), test_hook=hook)
            for name in names]


def stable(rows):
    out = []
    for row in sorted(rows, key=lambda r: r["index"]):
        row = dict(row)
        row["queue_wait_s"] = 0.0
        row["exec_s"] = 0.0
        row["beats"] = 0
        out.append(row)
    return out


def single_host_rows(names=CIRCUITS):
    with faults.suppressed():
        scheduler = BatchScheduler(workers=2, heartbeat_s=0.5)
        return [r.as_dict() for r in scheduler.run(make_jobs(names))]


def start_joiner(address_queue, **node_kw):
    """A joiner thread that waits for the coordinator's listener
    address, then serves it; returns (node, thread, outcome dict)."""
    node_kw.setdefault("workers", 2)
    node_kw.setdefault("heartbeat_s", 0.5)
    joiner = NodeServer(**node_kw)
    outcome = {}

    def run():
        try:
            host, port = address_queue.get(timeout=30.0)
        except queue.Empty:
            outcome["clean"] = False
            return
        outcome["clean"] = joiner.serve_join(host, port)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return joiner, thread, outcome


def spawn_node():
    """A clean-env subprocess worker node (accept mode)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    env.pop(faults.ENV_VAR, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "dist", "serve-node",
         "--port", "0", "--workers", "2", "--heartbeat", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    deadline = time.monotonic() + 30.0
    while True:
        line = proc.stdout.readline()
        if "node serving on" in line:
            addr = line.split("node serving on", 1)[1].split()[0]
            host, _, port = addr.rpartition(":")
            return proc, (host, int(port))
        if not line or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("node failed to become ready")


class TestLateJoin:
    def test_mid_batch_joiner_steals_work(self, tmp_path):
        static = NodeServer(port=0, workers=1, heartbeat_s=0.5).start()
        threading.Thread(target=static.serve_forever,
                         daemon=True).start()
        addresses = queue.Queue()
        joiner, thread, outcome = start_joiner(addresses)
        try:
            coordinator = DistCoordinator(
                [(static.host, static.port)],
                on_listen=lambda host, port: addresses.put((host, port)))
            rows = coordinator.run(make_jobs())
        finally:
            static.close()
            thread.join(timeout=10.0)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.joins == 1
        joined = [n for n in coordinator.stats()["nodes"] if n["joined"]]
        assert len(joined) == 1
        # The whole point of joining mid-batch: it got real work, all
        # of it stolen (a joiner has no home shard).
        assert joined[0]["executed"] > 0
        assert coordinator.steals >= joined[0]["executed"]
        # The coordinator said bye at drain; the join loop ended clean.
        assert outcome.get("clean") is True
        assert json.dumps(stable(rows)) == \
            json.dumps(stable(single_host_rows()))

    def test_listener_can_be_disabled(self):
        static = NodeServer(port=0, workers=2, heartbeat_s=0.5).start()
        threading.Thread(target=static.serve_forever,
                         daemon=True).start()
        try:
            coordinator = DistCoordinator(
                [(static.host, static.port)], join_port=None)
            rows = coordinator.run(make_jobs(("xor5", "rd53")))
        finally:
            static.close()
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator._join_sock is None


class TestReconnect:
    def test_dropped_joiner_reregisters_without_duplicate_rows(
            self, monkeypatch):
        # The static executor is a clean-env subprocess so the armed
        # node.loss fault only fires in the in-process joiner: its
        # first job receipt kills its session, the coordinator
        # reassigns its claims, and the joiner re-registers in place
        # under the same node_id.
        static_proc, static_addr = spawn_node()
        monkeypatch.setenv(faults.ENV_VAR, "node.loss:raise:1:1")
        addresses = queue.Queue()
        joiner, thread, outcome = start_joiner(
            addresses, node_id="rejoiner", join_backoff_s=0.05,
            join_tries=20)
        try:
            coordinator = DistCoordinator(
                [static_addr],
                on_listen=lambda host, port: addresses.put((host, port)))
            # The sleep keeps the static node busy past the joiner's
            # rejoin; a batch that drains first never sees the reconnect.
            rows = coordinator.run(make_jobs(hook="sleep:0.5"))
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            static_proc.terminate()
            try:
                static_proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                static_proc.kill()
            thread.join(timeout=10.0)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.joins == 1
        assert coordinator.reconnects >= 1
        # One row per index, whatever raced: the first-claim-wins map
        # accounts for every duplicate.
        assert sorted(r["index"] for r in rows) == \
            list(range(len(CIRCUITS)))
        assert json.dumps(stable(rows)) == \
            json.dumps(stable(single_host_rows()))

    def test_duplicate_live_node_id_is_refused(self):
        coordinator = DistCoordinator([("127.0.0.1", 1)])
        coordinator._jobs = []
        coordinator._start_join_listener()
        first = second = None
        try:
            first = connect("127.0.0.1", coordinator.join_port,
                            timeout=5.0)
            send_frame(first, {"op": "join", "workers": 1,
                               "node_id": "dup"})
            hello = recv_frame(first)
            assert hello["ok"] is True
            deadline = time.monotonic() + 5.0
            while coordinator.joins < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            second = connect("127.0.0.1", coordinator.join_port,
                             timeout=5.0)
            send_frame(second, {"op": "join", "workers": 1,
                                "node_id": "dup"})
            refusal = recv_frame(second)
            assert refusal["ok"] is False
            assert "already registered" in refusal["error"]
            assert coordinator.joins == 1
            assert coordinator.reconnects == 0
        finally:
            for sock in (first, second):
                if sock is not None:
                    sock.close()
            coordinator._teardown()
        # Satellite regression: shutdown-before-close must wake the
        # accept thread — a listener that only close()s leaves it
        # parked in accept() past teardown.
        assert not coordinator._join_thread.is_alive()


class TestRedial:
    def test_transient_session_loss_is_absorbed(self, monkeypatch,
                                                tmp_path):
        # nth=2: the node's hello reply (frame 1) survives; its next
        # frame dies, tearing the session while the node itself lives.
        # The coordinator must redial the same node and finish there —
        # no loss ladder, no reassignment to nowhere.
        node = NodeServer(port=0, workers=2, heartbeat_s=0.5).start()
        thread = threading.Thread(target=node.serve_forever,
                                  daemon=True)
        thread.start()
        monkeypatch.setenv(faults.ENV_VAR, "shard.rpc:raise:1:2")
        names = ("xor5", "rd53", "majority")
        try:
            coordinator = DistCoordinator(
                [(node.host, node.port)], rpc_backoff_s=0.05)
            rows = coordinator.run(make_jobs(names))
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            node.close()
            thread.join(timeout=5.0)
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.rpc_retries >= 1
        assert coordinator.node_losses == 0
        assert coordinator.local_fallback_jobs == 0
        assert coordinator.stats()["nodes"][0]["sessions"] >= 2
        assert json.dumps(stable(rows)) == \
            json.dumps(stable(single_host_rows(names)))

    def test_redial_budget_exhaustion_runs_the_loss_ladder(
            self, tmp_path):
        # A node that dies for real (socket gone) burns the redial
        # budget, then the loss ladder reassigns as before.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]

        def one_shot():
            conn, _ = sock.accept()
            try:
                hello = recv_frame(conn)
                assert hello["op"] == "hello"
                send_frame(conn, {"op": "hello", "ok": True,
                                  "workers": 2})
                recv_frame(conn)  # swallow one job, then vanish
            finally:
                conn.close()
                sock.close()

        threading.Thread(target=one_shot, daemon=True).start()
        real = NodeServer(port=0, workers=2, heartbeat_s=0.5).start()
        threading.Thread(target=real.serve_forever, daemon=True).start()
        try:
            coordinator = DistCoordinator(
                [("127.0.0.1", port), (real.host, real.port)],
                rpc_tries=2, rpc_backoff_s=0.05, connect_timeout_s=2.0)
            # The sleep keeps the real node busy past the redial budget;
            # a batch that drains first never declares the loss.
            rows = coordinator.run(make_jobs(("xor5", "rd53",
                                              "majority", "rd73"),
                                             hook="sleep:0.5"))
        finally:
            real.close()
        assert all(r["status"] == "ok" for r in rows)
        assert coordinator.rpc_retries >= 1
        assert coordinator.node_losses == 1
