"""Fixtures for the service-tier tests.

There is no async test plugin in the toolchain, so async service tests
run under ``asyncio.run`` and daemon tests host the real daemon on a
background thread (its own event loop) while the test drives it over
real sockets — which is also the more honest test: the client side
exercises the same code paths an external caller would.
"""

import asyncio
import json
import socket
import threading
import urllib.request

import pytest

from repro.runtime.cache import ResultCache
from repro.serve import DecompositionService, ServeDaemon


class DaemonHarness:
    """A live daemon plus a tiny NDJSON/HTTP client for the tests."""

    def __init__(self, daemon, service, thread, socket_path):
        self.daemon = daemon
        self.service = service
        self.thread = thread
        self.socket_path = socket_path

    # -- unix NDJSON client ---------------------------------------------

    def raw(self, payload: bytes, timeout: float = 120.0) -> bytes:
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(self.socket_path)
        sock.settimeout(timeout)
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            buf = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return buf
                buf += chunk
        finally:
            sock.close()

    def ask(self, *objs, timeout: float = 120.0):
        """Send request objects on one connection; return all frames."""
        payload = b"".join(
            (json.dumps(obj) + "\n").encode() for obj in objs)
        return [json.loads(line)
                for line in self.raw(payload, timeout).splitlines()
                if line.strip()]

    # -- HTTP client ----------------------------------------------------

    def http(self, path, body=None, method=None, timeout=120.0):
        host, port = self.daemon.http_address
        url = f"http://{host}:{port}{path}"
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url, data=data, method=method or ("POST" if data else "GET"))
        try:
            with urllib.request.urlopen(request,
                                        timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def stop(self, timeout: float = 30.0) -> None:
        self.daemon.request_stop()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "daemon failed to drain"


def start_daemon(tmp_path, **overrides):
    service_kwargs = dict(workers=2, timeout=120.0, retries=1,
                          heartbeat_s=0.2, retry_backoff_s=0.01,
                          cache=ResultCache(tmp_path / "cache"))
    daemon_kwargs = dict(allow_test_hooks=True, port=0)
    for key in list(overrides):
        if key in ("queue_depth", "shed", "workers", "timeout",
                   "retries", "hang_grace_s", "heartbeat_s", "cache",
                   "weights"):
            service_kwargs[key] = overrides.pop(key)
    daemon_kwargs.update(overrides)
    socket_path = str(tmp_path / "repro.sock")
    service = DecompositionService(**service_kwargs)
    daemon = ServeDaemon(service, socket_path=socket_path,
                         **daemon_kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.run(lambda d: ready.set())),
        daemon=True)
    thread.start()
    assert ready.wait(30), "daemon failed to start"
    return DaemonHarness(daemon, service, thread, socket_path)


@pytest.fixture
def daemon(tmp_path):
    harness = start_daemon(tmp_path)
    yield harness
    if harness.thread.is_alive():
        harness.stop()
