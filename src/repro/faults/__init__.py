"""Deterministic fault injection for chaos-hardening the runtime.

See :mod:`repro.faults.injector` for the spec grammar
(``site:kind:prob[:nth]`` via ``REPRO_FAULTS`` / ``--inject``), the site
catalog and the containment contract.  The public surface:

* :func:`fault_point` — inline pass-through site (cache/journal/worker
  chokepoints);
* :func:`hook` — cached-callable form for hot paths (``None`` unarmed);
* :func:`suppressed` — mask faults over recovery/fallback code;
* :func:`counters` — fires per ``site:kind`` for the metrics documents;
* :exc:`FaultInjected` — what the ``raise`` kind throws (quarantined by
  the engine, reported by workers).
"""

from repro.faults.injector import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    HANG_ENV,
    KINDS,
    OOM_ENV,
    SEED_ENV,
    SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    arm,
    armed,
    counters,
    disarm,
    fault_point,
    hook,
    parse_fault_specs,
    perform,
    reset_in_worker,
    suppressed,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "HANG_ENV",
    "KINDS",
    "OOM_ENV",
    "SEED_ENV",
    "SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "arm",
    "armed",
    "counters",
    "disarm",
    "fault_point",
    "hook",
    "parse_fault_specs",
    "perform",
    "reset_in_worker",
    "suppressed",
]
