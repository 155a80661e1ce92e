"""Job specifications and worker-side execution for the runtime.

A *job* is a plain JSON-able dict — that is the wire format between the
parent and its pool workers (:mod:`repro.runtime.pool`), and the unit a
batch manifest describes::

    {"job_id": "rd84", "source": {"kind": "benchmark", "name": "rd84"},
     "flow": "map", "config": {"use_dontcares": True}, ...}

Workers never share BDD managers with the parent: each job rebuilds
the function from the job's ``wire`` payload (a
:meth:`~repro.boolfunc.spec.MultiFunction.to_wire` dump, preferred) or
from its source descriptor (:func:`execute_job`), runs the flow,
verifies the mapped network and ships a JSON-able result back.
Rebuilding per job is what makes parallel results bit-identical to
serial runs — same code path, same fresh manager, no shared mutable
state.

Source descriptor kinds
-----------------------
``benchmark``   a registry circuit (``{"name": "rd84"}``)
``generator``   ``adderN``/``pmN`` (``{"name": "adder8"}``)
``pla``/``blif``  a file (``{"path": ...}``)
``synthetic``   a seeded synthetic instance
                (``{"name", "inputs", "outputs", "seed"}``)
``wire``        an inline :meth:`to_wire` dump (``{"data": ...}``)

Test hooks (``hang:<seconds>``, ``sleep:<seconds>``, ``busy:<seconds>``,
``crash`` / ``crash:<n>``) fire inside the worker before any real work;
they exist so the failure ladder's timeout, retry, hang-detection and
degradation paths are testable end to end (``sleep`` and ``busy``
continue afterwards — ``sleep`` makes a job wall-clock bound, which is
what the distributed benchmarks scale against; ``busy`` is slow work
that keeps the liveness pulse advancing, so a hang grace must not
fire).
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro import faults
from repro.boolfunc.spec import MultiFunction
from repro.decomp.dsd import dsd_enabled
from repro.obs.profiler import current_phase_snapshot, pulse, pulse_count

#: Networks above this LUT count are verified by random simulation
#: instead of the exact BDD check (same policy as the bench harness).
VERIFY_FORMAL_LIMIT = 3000

_GENERATOR_PREFIXES = ("adder", "pm")


def make_job(source: Dict[str, Any], *, job_id: Optional[str] = None,
             flow: str = "map", config: Optional[Dict[str, Any]] = None,
             test_hook: Optional[str] = None) -> Dict[str, Any]:
    """Assemble a job dict (the scheduler's input unit).

    A job made while the DSD pre-pass is off (``REPRO_DSD=off`` /
    ``--no-dsd``) carries ``"dsd": False``: workers, dist nodes and the
    cache key follow the stamp, not their own environment.
    """
    if flow not in ("map", "compare"):
        raise ValueError(f"unknown flow {flow!r} (use 'map' or 'compare')")
    job = {
        "job_id": job_id or source_label(source),
        "source": source,
        "flow": flow,
        "config": dict(config or {}),
        "test_hook": test_hook,
    }
    if not dsd_enabled():
        job["dsd"] = False
    return job


def source_label(source: Dict[str, Any]) -> str:
    """Short human-readable name for a source descriptor."""
    kind = source.get("kind")
    if kind in ("benchmark", "generator"):
        return source["name"]
    if kind in ("pla", "blif"):
        if "path" in source:
            return f"{kind}:{source['path']}"
        digest = hashlib.sha256(
            source.get("body", "").encode()).hexdigest()[:12]
        return f"{kind}:inline:{digest}"
    if kind == "synthetic":
        return (f"synth:{source['name']}:{source['inputs']}:"
                f"{source['outputs']}:{source.get('seed')}")
    if kind == "wire":
        return source.get("label", "wire")
    return str(kind)


def build_function(source: Dict[str, Any]) -> MultiFunction:
    """Reconstruct the :class:`MultiFunction` a descriptor names.

    Raises ``ValueError`` on malformed descriptors and propagates I/O
    and parse errors for file-backed sources.
    """
    kind = source.get("kind")
    if kind == "benchmark":
        from repro.bench.registry import benchmark
        return benchmark(source["name"])
    if kind == "generator":
        name = source["name"]
        for prefix in _GENERATOR_PREFIXES:
            if name.startswith(prefix):
                suffix = name[len(prefix):]
                if not suffix.isdigit() or int(suffix) < 1:
                    break
                if prefix == "adder":
                    from repro.arith.adders import adder_function
                    return adder_function(int(suffix))
                from repro.arith.multipliers import (
                    partial_multiplier_function,
                )
                return partial_multiplier_function(int(suffix))
        raise ValueError(f"malformed generator name {name!r}")
    if kind == "pla":
        from repro.boolfunc.pla import parse_pla
        if "path" in source:
            with open(source["path"]) as handle:
                return parse_pla(handle.read())
        return parse_pla(source["body"])
    if kind == "blif":
        from repro.boolfunc.blif import parse_blif
        if "path" in source:
            with open(source["path"]) as handle:
                return parse_blif(handle.read())
        return parse_blif(source["body"])
    if kind == "synthetic":
        from repro.bench.synthetic import synthetic_circuit
        return synthetic_circuit(
            source["name"], int(source["inputs"]), int(source["outputs"]),
            seed=source.get("seed"))
    if kind == "wire":
        return MultiFunction.from_wire(source["data"])
    raise ValueError(f"unknown source kind {kind!r}")


def source_from_name(name: str) -> Dict[str, Any]:
    """Descriptor for a bare circuit name (registry or generator)."""
    from repro.bench.registry import BENCHMARKS
    if name in BENCHMARKS:
        return {"kind": "benchmark", "name": name}
    for prefix in _GENERATOR_PREFIXES:
        suffix = name[len(prefix):] if name.startswith(prefix) else ""
        if suffix.isdigit() and int(suffix) >= 1:
            return {"kind": "generator", "name": name}
    raise ValueError(
        f"unknown circuit {name!r}: not a registered benchmark and not "
        f"an adderN/pmN generator")


def parse_manifest_entry(entry: str) -> Dict[str, Any]:
    """One manifest line -> a job dict (without flow/config).

    Grammar: a circuit name, ``pla:<path>``, ``blif:<path>`` or
    ``synth:<name>:<inputs>:<outputs>[:<seed>]``, optionally followed by
    a ``!hang=<s>`` / ``!sleep=<s>`` / ``!busy=<s>`` / ``!crash[=<n>]``
    test hook.
    """
    hook = None
    if "!" in entry:
        entry, _, hook_text = entry.partition("!")
        entry = entry.strip()
        hook_text = hook_text.strip()
        hook = hook_text.replace("=", ":", 1)
    if entry.startswith("pla:"):
        source: Dict[str, Any] = {"kind": "pla", "path": entry[4:]}
    elif entry.startswith("blif:"):
        source = {"kind": "blif", "path": entry[5:]}
    elif entry.startswith("synth:"):
        parts = entry.split(":")
        if len(parts) not in (4, 5):
            raise ValueError(
                f"malformed synthetic entry {entry!r} (use "
                f"synth:<name>:<inputs>:<outputs>[:<seed>])")
        source = {"kind": "synthetic", "name": parts[1],
                  "inputs": int(parts[2]), "outputs": int(parts[3])}
        if len(parts) == 5:
            source["seed"] = parts[4]
    else:
        source = source_from_name(entry)
    return make_job(source, test_hook=hook)


def parse_manifest(text: str) -> List[Dict[str, Any]]:
    """Parse a manifest: one entry per line, ``#`` comments, blanks
    skipped.  Returns job dicts (flow/config filled in by the caller)."""
    jobs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            jobs.append(parse_manifest_entry(line))
        except ValueError as exc:
            raise ValueError(f"manifest line {lineno}: {exc}") from exc
    return jobs


# ---------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------

def _apply_test_hook(hook: Optional[str], attempt: int) -> None:
    """Manifest ``!hang``/``!crash`` hooks — thin aliases over the fault
    injector's kinds (:func:`repro.faults.perform`), so manifests and
    ``REPRO_FAULTS`` specs share one implementation of "hang" and
    "crash"."""
    if not hook:
        return
    kind, _, arg = hook.partition(":")
    if kind == "hang":
        faults.perform("hang", site="test_hook",
                       seconds=float(arg) if arg else None)
    elif kind == "sleep":
        # A bounded wall-clock stall that then *continues* the job —
        # models an I/O-bound phase (unlike ``hang``, which never
        # returns and exists to trip the hang detector).  The dist
        # benchmarks use it to make jobs wall-clock-bound so speedup
        # measures concurrency, not CPU count.
        time.sleep(float(arg) if arg else 0.1)
    elif kind == "busy":
        # Slow but alive: work that may outlast a hang grace many times
        # over while the liveness pulse keeps advancing, as a long
        # engine phase would.
        deadline = time.monotonic() + (float(arg) if arg else 0.1)
        while time.monotonic() < deadline:
            pulse()
            time.sleep(0.01)
    elif kind == "crash":
        # Crash the first <n> attempts (every attempt when unbounded);
        # os._exit sidesteps any exception handling, like a real segfault.
        limit = int(arg) if arg else 10**9
        if attempt <= limit:
            faults.perform("crash", site="test_hook")
    else:
        raise ValueError(f"unknown test hook {hook!r}")


def _verify_record(func: MultiFunction, result) -> bool:
    if result.lut_count <= VERIFY_FORMAL_LIMIT:
        from repro.verify.equiv import check_extension
        return bool(check_extension(func, result.network))
    from repro.verify.bitsim import sample_check
    return sample_check(func, result.network, patterns=256)


def execute_job(job: Dict[str, Any], attempt: int = 1,
                build: Optional[Callable[[Dict[str, Any]],
                                         MultiFunction]] = None
                ) -> Dict[str, Any]:
    """Run one job to completion in the current process.

    Returns ``{"status": "ok", "result": <record>}``; any exception is
    the caller's to handle (the pool worker converts it into a
    ``failed`` payload, the failure ladder into a degrade decision).

    ``build`` overrides how the :class:`MultiFunction` is obtained —
    pool workers pass a builder that can memoise, so repeat sources
    reuse an already-built function (and its warm BDD manager) instead
    of rebuilding from the wire dump.  It runs *after* the
    ``worker.start`` fault site and test hooks, so every attempt meets
    its chaos in the same order.
    """
    faults.fault_point("worker.start")
    _apply_test_hook(job.get("test_hook"), attempt)
    if build is not None:
        func = build(job)
    elif job.get("wire"):
        func = MultiFunction.from_wire(job["wire"])
    else:
        func = build_function(job["source"])
    pulse()  # liveness checkpoint: function built, flow starting
    config = job.get("config") or {}
    verify = config.get("verify", True)
    engine_cfg = {k: config[k] for k in
                  ("time_budget", "node_budget") if config.get(k)}
    engine_cfg["use_dsd"] = job.get("dsd", True)
    from repro.core.api import map_to_xc3000
    submemo_counts: Dict[str, int] = {}

    def _tally_submemo(mapped) -> None:
        for name, count in (mapped.stats.submemo or {}).items():
            submemo_counts[name] = submemo_counts.get(name, 0) + count

    if job.get("flow") == "compare":
        baseline = map_to_xc3000(func, use_dontcares=False, **engine_cfg)
        with_dc = map_to_xc3000(func, use_dontcares=True, **engine_cfg)
        _tally_submemo(baseline)
        _tally_submemo(with_dc)
        record = {
            "mulopII": baseline.to_record(),
            "mulop_dc": with_dc.to_record(),
            "clbs_saved": baseline.clb_count - with_dc.clb_count,
        }
        if verify:
            record["verified"] = (_verify_record(func, baseline)
                                  and _verify_record(func, with_dc))
    else:
        result = map_to_xc3000(
            func, use_dontcares=config.get("use_dontcares", True),
            **engine_cfg)
        _tally_submemo(result)
        record = result.to_record()
        if verify:
            record["verified"] = _verify_record(func, result)
    if record.get("verified") is False:
        # A mapped network that fails verification must never be cached
        # or reported as a success; the failure ladder degrades it to
        # the (independently verified) trivial mapping instead.
        return {"status": "failed", "result": record,
                "error": "verification mismatch"}
    payload = {"status": "ok", "result": record}
    if submemo_counts:
        # Ride next to the record, never inside it: rows and cache
        # entries stay byte-identical whether the memo hit or missed.
        payload["submemo"] = submemo_counts
    return payload


def start_beat_thread(conn, send_lock: threading.Lock,
                      interval_s: float) -> threading.Event:
    """Ship liveness beats to the parent while the main thread makes
    progress.

    A beat is only sent when the process-global pulse (bumped on every
    profiler phase transition and at coarse runtime checkpoints) has
    advanced since the last check — a main thread stuck in a sleep or a
    dead loop stops pulsing, the beats stop, and the pool's hang grace
    fires.  The thread itself staying alive is deliberately *not*
    enough to count as liveness.
    """
    stop = threading.Event()

    def beat() -> None:
        last_pulse = -1  # first check always beats: "I started up"
        while not stop.wait(interval_s if last_pulse >= 0 else 0.0):
            seen = pulse_count()
            if seen == last_pulse:
                continue
            last_pulse = seen
            try:
                with send_lock:
                    conn.send({"beat": True,
                               "phase": current_phase_snapshot()})
            except (BrokenPipeError, OSError):
                return  # parent is gone; nothing left to report to

    thread = threading.Thread(target=beat, name="repro-heartbeat",
                              daemon=True)
    thread.start()
    return stop
