"""``repro serve`` — the async decomposition service.

A daemon that turns the batch runtime into a long-running service: a
persistent worker pool, a read-through result cache with single-flight
request coalescing, weighted-fair queueing with per-tenant admission
control, NDJSON progress streaming and a ``/metrics`` endpoint — over
a unix socket and/or a small HTTP/1.1 front-end.  See
``docs/SERVICE.md`` for the protocol and the failure matrix.

Layering::

    daemon.py    sockets, framing, HTTP, chaos sites, shutdown
    service.py   cache / single-flight / admission / retry-degrade
    queueing.py  weighted-fair queue (virtual-time WFQ)
    protocol.py  request grammar + typed error taxonomy

Quickstart::

    repro serve --socket /tmp/repro.sock --port 8787 --cache
    printf '{"source": "rd84"}\\n' | nc -U /tmp/repro.sock
"""

from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import (
    BadFrame,
    BadRequest,
    BadSource,
    Overloaded,
    ServeError,
    ServeRequest,
    ShuttingDown,
    TooLarge,
    parse_request,
)
from repro.serve.queueing import FairQueue, QueueFull
from repro.serve.service import DecompositionService

__all__ = [
    "ServeDaemon",
    "DecompositionService",
    "FairQueue",
    "QueueFull",
    "ServeError",
    "ServeRequest",
    "BadFrame",
    "BadRequest",
    "BadSource",
    "Overloaded",
    "ShuttingDown",
    "TooLarge",
    "parse_request",
]
