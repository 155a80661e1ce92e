"""The ``repro serve`` daemon: sockets in front of the service core.

Two front-ends share one :class:`~repro.serve.service
.DecompositionService`:

* **unix socket** (``--socket``) — NDJSON both ways.  Each request is
  one JSON line; each reply frame is one JSON line.  Requests on one
  connection are pipelined: a client may write several lines and read
  the (id-tagged) frames as they settle.
* **HTTP** (``--port``) — a deliberately small hand-rolled HTTP/1.1
  server (no external dependencies): ``POST /decompose`` with the same
  JSON body (``"stream": true`` upgrades the reply to chunked NDJSON),
  ``GET /metrics`` and ``GET /healthz``.

Chaos sites (:mod:`repro.faults`): every ingress frame routes through
``server.accept`` and every egress frame through ``server.reply``.  An
injected *raise* on accept becomes a typed ``error`` frame (the
connection lives on); on reply the frame is dropped and counted — in
both cases the daemon keeps serving.  ``crash`` kinds genuinely kill
the process (that is what crash means) and are exercised against a
sacrificial daemon in the chaos suite; ``hang`` kinds stall the frame
but complete, the same slow-but-alive semantics as the batch tier's
parent-side sites.

Shutdown: SIGTERM/SIGINT (or :meth:`ServeDaemon.request_stop`) begins a
graceful drain — listeners close, requests already admitted settle,
the pool stops, the socket file is removed.  New requests during the
drain get a typed ``shutting-down`` error.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from multiprocessing.util import register_after_fork
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import faults
from repro.serve.protocol import (
    BadFrame,
    ServeError,
    ShuttingDown,
    TooLarge,
    default_max_frame_bytes,
    parse_request,
)
from repro.serve.service import DecompositionService

_HTTP_STATUS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _InheritedFdGuard:
    """Close daemon socket FDs inside forked pool workers.

    Pool workers fork from a live daemon, inheriting every open FD —
    including accepted client connections and the listeners.  A
    long-lived worker holding a client connection's FD keeps that
    socket open after the daemon closes its copy, so the client never
    sees EOF (and a worker holding the HTTP listener would keep the
    port bound after shutdown).  The daemon tracks its socket FDs here;
    :func:`multiprocessing.util.register_after_fork` closes the
    snapshot in every forked child before it starts working.

    The child closes an FD only while it still names the tracked socket
    (device, inode): a number can outlive its socket (a stopped daemon's
    listener) and be reused by the new worker's own pipe.
    """

    def __init__(self) -> None:
        self.fds: Dict[int, Tuple[int, int]] = {}
        register_after_fork(self, _InheritedFdGuard._close_in_child)

    def add(self, fd: int) -> Optional[int]:
        try:
            stat = os.fstat(fd)
        except OSError:
            return None
        self.fds[fd] = (stat.st_dev, stat.st_ino)
        return fd

    def track(self, writer: asyncio.StreamWriter) -> Optional[int]:
        sock = writer.get_extra_info("socket")
        fd = sock.fileno() if sock is not None else -1
        return self.add(fd) if fd >= 0 else None

    def untrack(self, fd: Optional[int]) -> None:
        if fd is not None:
            self.fds.pop(fd, None)

    def _close_in_child(self) -> None:
        for fd, identity in list(self.fds.items()):
            try:
                stat = os.fstat(fd)
                if (stat.st_dev, stat.st_ino) == identity:
                    os.close(fd)
            except OSError:
                pass
        self.fds.clear()


class ServeDaemon:
    """Own the listeners, the connection tasks and the shutdown path."""

    def __init__(self, service: DecompositionService, *,
                 socket_path: Optional[str] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 allow_files: bool = False,
                 allow_test_hooks: bool = False,
                 max_frame_bytes: Optional[int] = None,
                 drain_timeout: float = 30.0) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a unix --socket path, a --port, "
                             "or both")
        self.service = service
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.allow_files = allow_files
        self.allow_test_hooks = allow_test_hooks
        self.max_frame_bytes = (default_max_frame_bytes()
                                if max_frame_bytes is None
                                else max_frame_bytes)
        self.drain_timeout = drain_timeout
        #: Filled in once listeners are up: ("127.0.0.1", 43117).
        self.http_address: Optional[Tuple[str, int]] = None
        self.connections = 0
        self.frames = 0
        self.bad_frames = 0
        self.replies_dropped = 0
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._fd_guard = _InheritedFdGuard()

    # -- lifecycle ------------------------------------------------------

    async def run(self, ready: Optional[Callable[["ServeDaemon"], None]]
                  = None) -> None:
        """Serve until stopped, then drain.  ``ready`` fires (with the
        daemon) once the listeners are accepting — tests hook it."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        servers = []
        # Double the frame ceiling for the StreamReader limit so the
        # "too large" path is ours (typed), not a silent truncation.
        limit = self.max_frame_bytes * 2
        if self.socket_path is not None:
            path = Path(self.socket_path)
            if path.exists():
                path.unlink()
            servers.append(await asyncio.start_unix_server(
                self._handle_unix, path=str(path), limit=limit))
        if self.port is not None:
            http = await asyncio.start_server(
                self._handle_http, self.host, self.port, limit=limit)
            self.http_address = http.sockets[0].getsockname()[:2]
            servers.append(http)
        for server in servers:
            for sock in server.sockets:
                self._fd_guard.add(sock.fileno())
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._stop.set)
            except (ValueError, NotImplementedError, RuntimeError):
                pass  # not the main thread (tests) or no loop support
        if ready is not None:
            ready(self)
        try:
            await self._stop.wait()
        finally:
            # Drain: refuse new work, stop accepting, let admitted
            # requests settle, then stop the pool and clean up.
            self.service._draining = True
            for server in servers:
                server.close()
            for server in servers:
                await server.wait_closed()
            if self._conn_tasks:
                await asyncio.wait(list(self._conn_tasks),
                                   timeout=self.drain_timeout)
            await self.service.drain(timeout=self.drain_timeout)
            for task in list(self._conn_tasks):
                task.cancel()
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass

    def request_stop(self) -> None:
        """Begin a graceful drain; safe to call from any thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    def stats(self) -> Dict[str, Any]:
        data = self.service.stats()
        data["server"] = {
            "connections": self.connections,
            "frames": self.frames,
            "bad_frames": self.bad_frames,
            "replies_dropped": self.replies_dropped,
        }
        return data

    # -- frame plumbing -------------------------------------------------

    def _send_line(self, writer: asyncio.StreamWriter,
                   frame: Dict[str, Any], chunked: bool = False) -> None:
        """One egress frame, through the ``server.reply`` chaos site.

        An injected raise drops (and counts) the reply — the daemon
        never dies for failing to speak.
        """
        data = (json.dumps(frame, separators=(",", ":")) + "\n").encode()
        try:
            data = faults.fault_point("server.reply", data)
        except (faults.FaultInjected, MemoryError):
            self.replies_dropped += 1
            return
        if writer.is_closing():
            return
        if chunked:
            writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
        else:
            writer.write(data)

    def _decode(self, raw: bytes) -> Any:
        """Ingress bytes -> decoded JSON, through ``server.accept``."""
        try:
            raw = faults.fault_point("server.accept", raw)
        except (faults.FaultInjected, MemoryError) as exc:
            raise BadFrame(f"ingress fault: {exc}") from exc
        if len(raw) > self.max_frame_bytes:
            raise TooLarge(f"frame over the {self.max_frame_bytes}-byte "
                           f"ceiling")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadFrame(f"frame is not valid JSON: {exc}") from exc

    async def _serve_obj(self, obj: Any,
                         emit: Callable[[Dict[str, Any]], None]
                         ) -> Dict[str, Any]:
        """One decoded request object -> its final frame.  All failures
        come back as typed error frames; nothing raises out of here."""
        request_id = obj.get("id") if isinstance(obj, dict) else None
        if not isinstance(request_id, str):
            request_id = None
        try:
            if self.service.draining:
                raise ShuttingDown("daemon is draining")
            request = parse_request(
                obj, allow_files=self.allow_files,
                allow_test_hooks=self.allow_test_hooks,
                max_body_bytes=self.max_frame_bytes)
            return await self.service.handle(request, emit)
        except ServeError as err:
            self.bad_frames += 1
            return err.as_frame(request_id)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — the daemon outlives bugs
            self.bad_frames += 1
            err = ServeError(f"{type(exc).__name__}: {exc}")
            return err.as_frame(request_id)

    # -- unix socket front-end ------------------------------------------

    async def _handle_unix(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        conn_fd = self._fd_guard.track(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        pipelined: "set[asyncio.Task]" = set()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line blew the stream limit; NDJSON cannot be
                    # resynced past a truncated line, so reply and close.
                    self.bad_frames += 1
                    self._send_line(writer, TooLarge(
                        f"frame over the {self.max_frame_bytes}-byte "
                        f"ceiling").as_frame())
                    break
                if not raw:
                    break
                if not raw.strip():
                    continue
                self.frames += 1
                line_task = asyncio.ensure_future(
                    self._serve_unix_line(raw.strip(), writer))
                pipelined.add(line_task)
                line_task.add_done_callback(pipelined.discard)
            if pipelined:
                await asyncio.wait(list(pipelined))
            await self._flush(writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for line_task in list(pipelined):
                line_task.cancel()
            self._fd_guard.untrack(conn_fd)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_unix_line(self, line: bytes,
                               writer: asyncio.StreamWriter) -> None:
        try:
            obj = self._decode(line)
        except ServeError as err:
            self.bad_frames += 1
            self._send_line(writer, err.as_frame())
            await self._flush(writer)
            return
        final = await self._serve_obj(
            obj, lambda frame: self._send_line(writer, frame))
        self._send_line(writer, final)
        await self._flush(writer)

    @staticmethod
    async def _flush(writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- HTTP front-end -------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        conn_fd = self._fd_guard.track(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._serve_http(reader, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._fd_guard.untrack(conn_fd)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            return self._http_reply(writer, 400,
                                    {"error": "bad-frame",
                                     "message": "oversized request line"})
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return self._http_reply(writer, 400,
                                    {"error": "bad-frame",
                                     "message": "malformed request line"})
        method, target, _ = parts
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                return self._http_reply(
                    writer, 400, {"error": "bad-frame",
                                  "message": "oversized header"})
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 64:
                return self._http_reply(
                    writer, 400, {"error": "bad-frame",
                                  "message": "too many headers"})
        if method == "GET" and target in ("/metrics", "/healthz"):
            if target == "/healthz":
                return self._http_reply(
                    writer, 200, {"ok": not self.service.draining,
                                  "draining": self.service.draining})
            from repro.obs.metrics import serve_metrics
            return self._http_reply(writer, 200,
                                    serve_metrics(self.stats()))
        if target != "/decompose":
            return self._http_reply(writer, 404,
                                    {"error": "bad-request",
                                     "message": f"no route {target!r}"})
        if method != "POST":
            return self._http_reply(
                writer, 405, {"error": "bad-request",
                              "message": "POST /decompose only"})
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            return self._http_reply(
                writer, 400, {"error": "bad-frame",
                              "message": "missing/bad Content-Length"})
        if length > self.max_frame_bytes:
            return self._http_reply(
                writer, 413,
                {"error": "too-large",
                 "message": f"body over the {self.max_frame_bytes}-byte "
                            f"ceiling"})
        body = await reader.readexactly(length)
        self.frames += 1
        try:
            obj = self._decode(body)
        except ServeError as err:
            self.bad_frames += 1
            return self._http_reply(writer, err.http_status,
                                    err.as_frame())
        streaming = isinstance(obj, dict) and obj.get("stream") is True
        if not streaming:
            final = await self._serve_obj(obj, lambda frame: None)
            status = 200
            if final.get("event") == "error":
                status = self._error_status(final.get("error"))
            return self._http_reply(writer, status, final)
        # Streaming reply: chunked NDJSON, one frame per chunk.  The
        # status line is committed before the outcome is known, so
        # errors ride inside the stream as frames (HTTP streaming's
        # usual trade).
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n")
        final = await self._serve_obj(
            obj, lambda frame: self._send_line(writer, frame,
                                               chunked=True))
        self._send_line(writer, final, chunked=True)
        writer.write(b"0\r\n\r\n")
        await self._flush(writer)

    @staticmethod
    def _error_status(code: Any) -> int:
        for cls in ServeError.__subclasses__():
            if cls.code == code:
                return cls.http_status
        return 500

    def _http_reply(self, writer: asyncio.StreamWriter, status: int,
                    payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, separators=(",", ":")) + "\n"
                ).encode()
        try:
            body = faults.fault_point("server.reply", body)
        except (faults.FaultInjected, MemoryError):
            self.replies_dropped += 1
            body = b"{}\n"
        reason = _HTTP_STATUS.get(status, "Unknown")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body)
