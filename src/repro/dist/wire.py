"""Length-prefixed JSON framing — the codec of every dist connection.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  The prefix makes message boundaries explicit (TCP is a
byte stream), keeps the parser trivial, and lets a receiver reject a
nonsense length before allocating for it.  All dist protocols
(coordinator<->node, node<->cache server) are frame sequences; a clean
EOF between frames is the normal way a peer says goodbye, so
:func:`recv_frame` returns ``None`` there instead of raising.

Chaos: senders route the encoded bytes through a caller-named fault
site (``shard.rpc`` for node RPC, ``cache.fetch`` for cache client
frames), so injected corruption/raises happen *on the wire path* and
containment is tested where the failure would really occur.  A frame
corrupted in flight surfaces as :class:`WireError` on the receiving
side (bad JSON / bad length), never as a crash.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import time
import zlib
from typing import Any, Callable, Dict, Optional

from repro.faults import FaultInjected, fault_point
from repro.runtime.scheduler import retry_backoff

#: Frames above this are protocol errors, not payloads (a corrupted
#: length prefix reads as gibberish; don't allocate gibibytes for it).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class WireError(Exception):
    """A malformed or oversized frame (protocol violation, not I/O)."""


def send_frame(sock: socket.socket, message: Dict[str, Any],
               site: Optional[str] = None) -> None:
    """Encode and send one frame.

    ``site`` names the fault site the encoded bytes route through
    (``None`` skips injection — used by replies on the trusted side).
    Raises ``OSError`` on a dead socket and :class:`FaultInjected` for
    injected raise-kind faults; callers own the containment policy.
    """
    data = json.dumps(message, separators=(",", ":")).encode()
    if site is not None:
        data = fault_point(site, data)
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(data)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    sock.sendall(_LEN.pack(len(data)) + data)


def recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """``count`` bytes, or ``None`` on a clean EOF *before* any byte.

    EOF mid-chunk is a torn frame — that is a :class:`WireError`, not a
    goodbye.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise WireError(f"connection closed {remaining} bytes into "
                            f"a {count}-byte read")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One decoded frame, or ``None`` on clean EOF between frames.

    Raises :class:`WireError` for torn/oversized/undecodable frames and
    propagates ``OSError``/``socket.timeout`` from the socket itself.
    """
    header = recv_exactly(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    body = recv_exactly(sock, length)
    if body is None:
        raise WireError("connection closed between header and body")
    try:
        message = json.loads(body.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(f"frame is {type(message).__name__}, expected "
                        f"an object")
    return message


def connect(host: str, port: int,
            timeout: Optional[float] = None) -> socket.socket:
    """A connected TCP socket with ``TCP_NODELAY`` (frames are small
    and latency-sensitive; Nagle would batch them)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def backoff_rng(seed: int, label: str) -> random.Random:
    """A deterministic per-peer jitter stream.

    Every retry loop in the dist tier (coordinator redial, node rejoin)
    draws its :func:`~repro.runtime.scheduler.retry_backoff` jitter from
    a stream seeded by ``(seed, label)`` via crc32 — the same idiom as
    :mod:`repro.faults` — so a given topology + seed reproduces the
    exact retry schedule, and two peers with the same seed still jitter
    differently.
    """
    return random.Random(zlib.crc32(f"{seed}:{label}".encode()))


def connect_with_retry(host: str, port: int, tries: int = 3,
                       backoff_s: float = 0.2,
                       timeout: Optional[float] = None,
                       rng: Optional[random.Random] = None,
                       on_retry: Optional[Callable[[int, Exception],
                                                   None]] = None
                       ) -> socket.socket:
    """Dial with bounded seeded-jitter retry before giving up.

    A transient refusal (node mid-session, accept backlog full, TCP
    blip) costs a short jittered sleep instead of a shard reassignment.
    ``on_retry(attempt, exc)`` fires before each re-attempt so callers
    can count retries.  The final failure's ``OSError`` propagates.
    """
    rng = rng or random.Random(0)
    tries = max(1, tries)
    for attempt in range(1, tries + 1):
        try:
            return connect(host, port, timeout=timeout)
        except OSError as exc:
            if attempt >= tries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            time.sleep(retry_backoff(attempt, backoff_s, rng))
    raise OSError(f"unreachable {host}:{port}")  # pragma: no cover


__all__ = [
    "MAX_FRAME_BYTES",
    "WireError",
    "backoff_rng",
    "connect",
    "connect_with_retry",
    "recv_exactly",
    "recv_frame",
    "retry_backoff",
    "send_frame",
    "FaultInjected",
]
