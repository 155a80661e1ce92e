"""Remote result cache: read-through, write-behind, failure = miss.

A :class:`RemoteCache` must behave exactly like a local
:class:`ResultCache` from the scheduler's point of view — same keys,
same get/put surface, and above all the same failure contract: any
store problem (server down, torn frame, injected fault) serves as a
cache *miss*, never as an exception reaching a job.
"""

import socket
import struct
import time

import pytest

from repro.dist.cachenet import CacheServer, RemoteCache
from repro.dist.wire import recv_frame, send_frame
from repro.runtime.cache import ResultCache

KEY = "ab" * 32
OTHER = "cd" * 32
PAYLOAD = {"lut_count": 4, "verified": True}


@pytest.fixture
def server(tmp_path):
    backing = ResultCache(tmp_path / "cache", memory_limit=0)
    srv = CacheServer(backing).start()
    yield srv
    srv.close()


def client(server, **kwargs):
    return RemoteCache(server.host, server.port, **kwargs)


class TestReadThrough:
    def test_miss_then_hit(self, server):
        rc = client(server)
        try:
            assert rc.get(KEY) is None
            assert rc.remote_misses == 1
            server.cache.put(KEY, PAYLOAD)
            assert rc.get(KEY) == PAYLOAD
            assert rc.remote_hits == 1
        finally:
            rc.close()

    def test_second_get_served_from_memory(self, server):
        rc = client(server)
        try:
            server.cache.put(KEY, PAYLOAD)
            assert rc.get(KEY) == PAYLOAD
            gets_before = server.counters["gets"]
            assert rc.get(KEY) == PAYLOAD
            assert server.counters["gets"] == gets_before
        finally:
            rc.close()

    def test_keys_shared_with_local_cache(self, server, tmp_path):
        # The remote store IS a ResultCache directory: a single-host
        # run against the same root sees entries a node wrote.
        rc = client(server)
        try:
            rc.put(KEY, PAYLOAD)
            assert rc.flush()
        finally:
            rc.close()
        local = ResultCache(tmp_path / "cache", memory_limit=0)
        assert local.get(KEY) == PAYLOAD


class TestWriteBehind:
    def test_put_reaches_server(self, server):
        rc = client(server)
        try:
            rc.put(KEY, PAYLOAD)
            assert rc.flush()
            assert server.cache.get(KEY) == PAYLOAD
            assert server.counters["puts"] == 1
        finally:
            rc.close()

    def test_put_visible_to_other_client(self, server):
        writer, reader = client(server), client(server)
        try:
            writer.put(KEY, PAYLOAD)
            assert writer.flush()
            assert reader.get(KEY) == PAYLOAD
        finally:
            writer.close()
            reader.close()

    def test_flush_waits_for_the_write_in_flight(self, server,
                                                 monkeypatch):
        # The writer pops an entry before sending it, so an empty queue
        # does not mean the write landed: flush must also wait for the
        # write the server is still answering.
        store = server.cache.put

        def slow_put(key, payload):
            time.sleep(0.3)
            store(key, payload)

        monkeypatch.setattr(server.cache, "put", slow_put)
        rc = client(server)
        try:
            rc.put(KEY, PAYLOAD)
            time.sleep(0.05)  # the writer has popped the entry by now
            assert rc.flush()
            assert server.cache.get(KEY) == PAYLOAD
            assert rc.counter_stats()["pending_writes"] == 0
        finally:
            rc.close()

    def test_put_never_blocks_on_dead_server(self, server):
        rc = client(server)
        server.close()
        try:
            t0 = time.perf_counter()
            rc.put(KEY, PAYLOAD)
            assert time.perf_counter() - t0 < 0.5
            rc.flush(timeout=2.0)
            # The write was skipped and counted, same contract as a
            # local disk write error.
            assert rc.write_errors >= 1
            # The local memory tier still remembers it.
            assert rc.get(KEY) == PAYLOAD
        finally:
            rc.close()


class TestFailureIsMiss:
    def test_server_down_get_is_miss(self):
        # Bind then close: a port with nothing listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = RemoteCache("127.0.0.1", port, timeout=1.0)
        try:
            assert rc.get(KEY) is None
            assert rc.fetch_errors == 1
            assert rc.misses == 1
        finally:
            rc.close()

    def test_server_restart_recovers(self, server):
        rc = client(server)
        try:
            assert rc.get(KEY) is None
            server.close()
            assert rc.get(OTHER) is None       # error -> miss
            assert rc.fetch_errors >= 1
            revived = CacheServer(server.cache, port=server.port).start()
            try:
                revived.cache.put(KEY, PAYLOAD)
                assert rc.get(KEY) == PAYLOAD  # fresh socket, fresh luck
            finally:
                revived.close()
        finally:
            rc.close()

    def test_torn_request_poisons_only_that_connection(self, server):
        raw = socket.create_connection((server.host, server.port),
                                       timeout=5.0)
        raw.sendall(struct.pack(">I", 64) + b"torn")
        raw.close()
        deadline = time.monotonic() + 5.0
        while server.counters["errors"] == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.counters["errors"] == 1
        rc = client(server)
        try:
            server.cache.put(KEY, PAYLOAD)
            assert rc.get(KEY) == PAYLOAD  # the server is still serving
        finally:
            rc.close()

    def test_unknown_op_is_an_error_reply_not_a_hang(self, server):
        raw = socket.create_connection((server.host, server.port),
                                       timeout=5.0)
        try:
            send_frame(raw, {"op": "launch-missiles"})
            reply = recv_frame(raw)
            assert reply["ok"] is False
        finally:
            raw.close()

    @pytest.mark.parametrize("ns", ["submemo", "jobs"])
    def test_frame_naming_a_namespace_is_refused(self, server, ns):
        # There is one store: an older client's namespaced frame is
        # answered with an error, and its put stores nothing.
        server.cache.put(KEY, PAYLOAD)
        raw = socket.create_connection((server.host, server.port),
                                       timeout=5.0)
        try:
            send_frame(raw, {"op": "put", "key": OTHER, "ns": ns,
                             "payload": PAYLOAD})
            assert recv_frame(raw) == {"ok": False,
                                       "error": "bad namespace"}
            send_frame(raw, {"op": "get", "key": KEY, "ns": ns})
            assert recv_frame(raw) == {"ok": False,
                                       "error": "bad namespace"}
            send_frame(raw, {"op": "get", "key": KEY})
            assert recv_frame(raw)["payload"] == PAYLOAD
        finally:
            raw.close()
        assert server.cache.get(OTHER) is None
        assert server.counters["errors"] == 2


class TestObservability:
    def test_counter_stats_shape(self, server):
        rc = client(server)
        try:
            rc.get(KEY)
            rc.put(KEY, PAYLOAD)
            rc.flush()
            stats = rc.counter_stats()
            for field in ("hits", "misses", "remote_hits",
                          "remote_misses", "fetch_errors",
                          "pending_writes", "hit_latency",
                          "miss_latency"):
                assert field in stats
            assert stats["pending_writes"] == 0
            assert stats["miss_latency"]["samples"] == 1
        finally:
            rc.close()

    def test_server_stats_op(self, server):
        server.cache.put(KEY, PAYLOAD)
        raw = socket.create_connection((server.host, server.port),
                                       timeout=5.0)
        try:
            send_frame(raw, {"op": "get", "key": KEY})
            assert recv_frame(raw)["payload"] == PAYLOAD
            send_frame(raw, {"op": "stats"})
            reply = recv_frame(raw)
            assert reply["ok"] is True
            assert reply["served"]["gets"] == 1
            assert reply["served"]["hits"] == 1
            assert "hits" in reply["stats"]
        finally:
            raw.close()
