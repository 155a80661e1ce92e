"""Deterministic, seeded fault injection for chaos testing.

The runtime and engine expose named *fault sites* — chokepoints where a
production deployment actually fails (worker startup, mid-decomposition,
cache I/O, journal appends, kernel dispatch, the BDD core).  A site is a
no-op until *armed* through the ``REPRO_FAULTS`` environment variable
(or the CLI's ``--inject``)::

    REPRO_FAULTS="worker.mid_decomp:raise:1:1"      # raise on 1st arrival
    REPRO_FAULTS="cache.write:corrupt:0.5"          # corrupt ~half the writes
    REPRO_FAULTS="bdd.ite:crash:1:100,cache.read:raise:0.1"

Spec grammar (comma- or semicolon-separated)::

    site:kind:prob[:nth]

* ``site`` — one of :data:`SITES` (see the catalog in ``docs/RUNTIME.md``);
* ``kind`` — one of :data:`KINDS`:

  - ``crash``   — ``os._exit(CRASH_EXIT_CODE)``, like a SIGKILL/OOM kill;
  - ``hang``    — sleep ``$REPRO_FAULTS_HANG_S`` (default 3600) seconds;
  - ``oom``     — allocate until ``MemoryError`` (allocation is capped at
    ``$REPRO_FAULTS_OOM_MB``, default 256, then a ``MemoryError`` is
    raised directly — the *effect* of memory exhaustion without taking
    the host down);
  - ``corrupt`` — flip one deterministic bit of the site's payload
    (``bytes``); payload-less sites pass through unchanged;
  - ``raise``   — raise :class:`FaultInjected`;

* ``prob`` — firing probability per arrival in ``[0, 1]``, drawn from a
  per-spec ``random.Random`` seeded by ``$REPRO_FAULTS_SEED`` (default
  0), the site, the kind and the spec position — so a given spec string
  + seed reproduces the exact same fault schedule;
* ``nth`` — when given, fire on exactly the ``nth`` arrival at the site
  (1-based) and never again; ``prob`` is ignored.

Zero overhead when unarmed: :func:`hook` returns ``None`` (callers cache
the result and guard with an ``is not None`` test — this is what the hot
``bdd.ite`` path does), and :func:`fault_point` is a dict lookup plus an
identity comparison.  Arrival counting happens only on armed sites.

:func:`suppressed` masks all sites for a dynamic extent on the calling
thread.  The runtime wraps its parent-side *fallback* paths (cache
probe, degraded rerun) in it: the degradation path is the
guaranteed-correct path of the failure contract, so faults never target
it — a chaos run can degrade results but can never crash the parent
through its own recovery code.  The mask is per thread so a fallback on
one thread never hides the storage sites (``cache.write``,
``journal.append``) another thread of the same parent passes.
"""

from __future__ import annotations

import os
import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: The fault-site catalog (see docs/RUNTIME.md for who calls what).
SITES = (
    "worker.start",
    "worker.mid_decomp",
    "cache.write",
    "cache.read",
    "journal.append",
    "kernel.dispatch",
    "bdd.ite",
    # Service-tier sites (repro serve): request ingress, reply egress
    # and the daemon->pool handoff.  See docs/SERVICE.md for the
    # containment matrix.
    "server.accept",
    "server.reply",
    "server.dispatch",
    # Distributed-tier sites (repro dist): remote cache client frames,
    # node-side shard RPC framing, and whole-node death on job receipt.
    # See the "Distributed batch" failure ladder in docs/RUNTIME.md.
    "cache.fetch",
    "shard.rpc",
    "node.loss",
    # Crash-safe distributed sites: coordinator-side journal appends
    # (the crash kind is the SIGKILL-the-coordinator scenario --resume
    # exists for), and the node-side join/re-registration handshakes of
    # dynamic membership.
    "coord.journal",
    "node.join",
    "node.reconnect",
)

#: The fault kinds every site understands.
KINDS = ("crash", "hang", "oom", "corrupt", "raise")

#: Environment variable holding the armed specs.
ENV_VAR = "REPRO_FAULTS"
#: Seed for the per-spec probability streams (default 0).
SEED_ENV = "REPRO_FAULTS_SEED"
#: Sleep duration of the ``hang`` kind in seconds (default 3600).
HANG_ENV = "REPRO_FAULTS_HANG_S"
#: Allocation cap of the ``oom`` kind in MB (default 256).
OOM_ENV = "REPRO_FAULTS_OOM_MB"

#: Exit code of the ``crash`` kind (distinct from the legacy test-hook
#: exit 3 so logs show which path killed the worker).
CRASH_EXIT_CODE = 23


class FaultInjected(RuntimeError):
    """Raised by the ``raise`` kind; carries the site name."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r} "
                         f"(REPRO_FAULTS armed)")
        self.site = site


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` / ``--inject`` spec."""


@dataclass
class FaultSpec:
    """One parsed ``site:kind:prob[:nth]`` clause."""

    site: str
    kind: str
    prob: float
    nth: Optional[int] = None
    #: Per-spec deterministic probability stream.
    rng: random.Random = field(default_factory=random.Random, repr=False)


def parse_fault_specs(text: str, seed: int = 0) -> List[FaultSpec]:
    """Parse a spec string into :class:`FaultSpec` entries.

    Raises :class:`FaultSpecError` on unknown sites/kinds or malformed
    numbers — arming a typo silently would defeat the chaos tests.
    """
    specs: List[FaultSpec] = []
    for index, clause in enumerate(text.replace(";", ",").split(",")):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) not in (3, 4):
            raise FaultSpecError(
                f"malformed fault spec {clause!r} "
                f"(use site:kind:prob[:nth])")
        site, kind, prob_text = parts[0], parts[1], parts[2]
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r} (known: {', '.join(SITES)})")
        if kind not in KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (known: {', '.join(KINDS)})")
        try:
            prob = float(prob_text)
        except ValueError:
            raise FaultSpecError(
                f"malformed probability {prob_text!r} in {clause!r}")
        if not 0.0 <= prob <= 1.0:
            raise FaultSpecError(
                f"probability {prob} out of [0, 1] in {clause!r}")
        nth = None
        if len(parts) == 4:
            try:
                nth = int(parts[3])
            except ValueError:
                raise FaultSpecError(
                    f"malformed nth {parts[3]!r} in {clause!r}")
            if nth < 1:
                raise FaultSpecError(f"nth must be >= 1 in {clause!r}")
        # Each spec gets its own stream so adding a clause never shifts
        # another clause's schedule.
        stream_seed = zlib.crc32(
            f"{seed}:{index}:{site}:{kind}".encode())
        specs.append(FaultSpec(site=site, kind=kind, prob=prob, nth=nth,
                               rng=random.Random(stream_seed)))
    return specs


class FaultPlan:
    """The armed specs plus their deterministic arrival bookkeeping."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.by_site: Dict[str, List[FaultSpec]] = {}
        for spec in specs:
            self.by_site.setdefault(spec.site, []).append(spec)
        #: Arrivals per armed site (advances only for armed sites).
        self.arrivals: Dict[str, int] = {}
        #: Fires per ``site:kind``.
        self.fired: Dict[str, int] = {}

    def fire(self, site: str, payload: Any = None) -> Any:
        specs = self.by_site.get(site)
        if not specs or getattr(_SUPPRESS, "depth", 0):
            return payload
        n = self.arrivals.get(site, 0) + 1
        self.arrivals[site] = n
        for spec in specs:
            if spec.nth is not None:
                if n != spec.nth:
                    continue
            elif spec.rng.random() >= spec.prob:
                continue
            self.fired[f"{site}:{spec.kind}"] = \
                self.fired.get(f"{site}:{spec.kind}", 0) + 1
            payload = perform(spec.kind, site=site, payload=payload,
                              rng=spec.rng)
        return payload


# ---------------------------------------------------------------------
# Fault actions (shared with the legacy !hang/!crash manifest hooks)
# ---------------------------------------------------------------------

def perform(kind: str, site: str = "manual", payload: Any = None,
            seconds: Optional[float] = None,
            rng: Optional[random.Random] = None) -> Any:
    """Execute one fault action directly (also the ``!hang``/``!crash``
    manifest-hook backend — those hooks are thin aliases over this)."""
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        if seconds is None:
            seconds = float(os.environ.get(HANG_ENV, "") or 3600.0)
        time.sleep(seconds)
        return payload
    if kind == "oom":
        _allocate_until_oom()
        return payload  # pragma: no cover - _allocate_until_oom raises
    if kind == "corrupt":
        return _corrupt(payload, rng or random.Random(0))
    if kind == "raise":
        raise FaultInjected(site)
    raise FaultSpecError(f"unknown fault kind {kind!r}")


def _allocate_until_oom() -> None:
    """Allocate until ``MemoryError`` — capped so chaos tests exercise
    the *handling* of memory exhaustion without destabilising the host;
    past the cap the ``MemoryError`` is raised directly."""
    cap_mb = float(os.environ.get(OOM_ENV, "") or 256.0)
    chunk = 16 * 1024 * 1024
    hoard = []
    try:
        while len(hoard) * chunk < cap_mb * 1024 * 1024:
            hoard.append(bytearray(chunk))
    except MemoryError:
        pass
    finally:
        del hoard
    raise MemoryError(
        f"injected oom (allocated up to {cap_mb:.0f} MB cap; "
        f"raise {OOM_ENV} to allocate further)")


def _corrupt(payload: Any, rng: random.Random) -> Any:
    """Flip one deterministic bit of a bytes-like payload."""
    if payload is None:
        return None
    data = bytearray(payload)
    if not data:
        return bytes(data)
    pos = rng.randrange(len(data))
    data[pos] ^= 1 << rng.randrange(8)
    return bytes(data)


# ---------------------------------------------------------------------
# Module state: lazy env parsing, suppression, counters
# ---------------------------------------------------------------------

#: (spec text, seed text) snapshot the current plan was parsed from.
_env_snapshot: Optional[tuple] = ("<never>",)
_plan: Optional[FaultPlan] = None
#: Suppression depth of each thread (``depth`` attribute).
_SUPPRESS = threading.local()


def _current_plan() -> Optional[FaultPlan]:
    """The plan for the current environment (re-parsed on env change)."""
    global _env_snapshot, _plan
    snapshot = (os.environ.get(ENV_VAR), os.environ.get(SEED_ENV))
    if snapshot != _env_snapshot:
        _env_snapshot = snapshot
        text = snapshot[0]
        if text:
            seed = int(snapshot[1] or 0)
            _plan = FaultPlan(parse_fault_specs(text, seed))
        else:
            _plan = None
    return _plan


def armed() -> bool:
    """Is any fault site armed in the current environment?"""
    plan = _current_plan()
    return plan is not None and bool(plan.by_site)


def fault_point(site: str, payload: Any = None) -> Any:
    """Pass ``payload`` through the fault site ``site``.

    Unarmed (the production default) this is an env-snapshot comparison
    and a ``None`` test; armed it may crash, hang, raise, exhaust
    memory, or return a corrupted payload.
    """
    plan = _current_plan()
    if plan is None:
        return payload
    return plan.fire(site, payload)


def hook(site: str) -> Optional[Callable[[], None]]:
    """A zero-argument firing callable for ``site``, or ``None`` when the
    site is unarmed — for hot paths that cache the hook at construction
    time and guard with ``is not None`` (e.g. ``BDD.ite``)."""
    plan = _current_plan()
    if plan is None or site not in plan.by_site:
        return None
    return lambda: plan.fire(site)


@contextmanager
def suppressed() -> Iterator[None]:
    """Mask every fault site for the dynamic extent (recovery paths) on
    the calling thread."""
    _SUPPRESS.depth = getattr(_SUPPRESS, "depth", 0) + 1
    try:
        yield
    finally:
        _SUPPRESS.depth -= 1


def counters() -> Dict[str, int]:
    """``{"site:kind": fires}`` for the current plan (empty when unarmed)."""
    plan = _current_plan()
    return dict(plan.fired) if plan is not None else {}


def reset_in_worker() -> None:
    """Re-arm from the environment with fresh arrival counters.

    Called at worker-process entry so every attempt counts arrivals from
    1 regardless of what the (forked) parent already consumed — this is
    what makes ``nth`` deterministic per attempt.
    """
    global _env_snapshot, _plan
    _env_snapshot = ("<never>",)
    _plan = None
    _current_plan()


def arm(text: str, seed: Optional[int] = None) -> None:
    """Arm ``text`` via the environment (inherited by worker processes).

    Validates eagerly so a typo fails at arm time, not mid-batch.
    """
    parse_fault_specs(text, seed or 0)
    os.environ[ENV_VAR] = text
    if seed is not None:
        os.environ[SEED_ENV] = str(seed)


def disarm() -> None:
    """Remove every armed fault from the environment."""
    os.environ.pop(ENV_VAR, None)
