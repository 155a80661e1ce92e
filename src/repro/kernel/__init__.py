"""Word-parallel truth-table kernel for the decomposition hot paths.

The ``--profile`` data in ``docs/PERFORMANCE.md`` shows the engine
spending most of its time in three phases — ``dc_step1_symmetry``,
``cofactors`` and ``clique_cover`` — all of which walk the pure-Python
ROBDD store one restrict/ITE call at a time, even though at the
recursion depths where they fire the live support is small.  This
package re-expresses those phases over *packed truth tables*, one
plain Python int per mask (bit ``k`` = table entry ``k``), so the
whole kernel runs on CPython's C bignum AND/OR/shift and the standard
library:

* :mod:`repro.kernel.bitset` — the mask primitives (the cofactor-half
  split on the mask's bytes, the per-variable selector masks);
* :mod:`repro.kernel.convert` — lossless, canonical ``BDD <-> mask``
  conversion (equal functions convert to equal masks and back to the
  *same* node ids, which is what makes the kernel results
  bit-identical to the BDD path);
* :mod:`repro.kernel.compat` — bound-set vertex cofactor extraction as
  contiguous row slices of a bound-first mask, plus the ISF
  compatibility / running-intersection / greedy-cover pipeline as
  bitwise AND/OR over ``(lo, hi)`` mask pairs;
* :mod:`repro.kernel.symmetry` — (non)equivalence symmetry checks and
  the ``make_symmetric`` narrowing as shifted mask algebra against
  precomputed cofactor-plane selectors;
* :mod:`repro.kernel.dsd` — the DSD pre-pass split predicates.

Dispatch is transparent: the call sites in :mod:`repro.decomp.compat`,
:mod:`repro.decomp.bound_set`, :mod:`repro.decomp.dsd`,
:mod:`repro.symmetry.groups` and the engine's common-group check route
through the kernel when the live support has at most :data:`MAX_VARS`
variables and take the BDD path otherwise, counted as a ``too_wide``
miss.  Both the compatible-class and the symmetry ops measure that
support *per output*: each output gets its own table domain (for the
class ops its live support plus the bound set, for the symmetry ops its
live support), so a multi-output bundle is served whenever its widest
single output fits, however wide the union of the outputs' supports.
``REPRO_KERNEL=off`` disables the kernel entirely (the oracle switch:
the differential suite in ``tests/kernel/`` proves both paths produce
identical results).

Every dispatch decision is counted in a module-level
:class:`KernelStats` (reset per engine run): hits by operation, misses
by cause.  The snapshot lands in the versioned metrics document under
``"kernel"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict

#: Live-support cap for kernel dispatch: tables of at most 2**16 bits.
#: Wider supports take the BDD path as a ``too_wide`` miss.
MAX_VARS = 16

#: Why a dispatch fell back to the BDD path (``KernelStats`` miss
#: causes): the widest table is past :data:`MAX_VARS`, or a
#: :class:`repro.kernel.convert.TableMismatchError` (stale ordering)
#: degraded the call.
MISS_TOO_WIDE = "too_wide"
MISS_MISMATCH = "mismatch"
MISS_CAUSES = (MISS_TOO_WIDE, MISS_MISMATCH)

_OFF_VALUES = {"off", "0", "false", "no"}


def kernel_enabled() -> bool:
    """Is kernel dispatch enabled?  (``REPRO_KERNEL=off`` disables it.)

    The environment is read on every call so tests and the CLI's
    ``--no-kernel`` can flip the switch mid-process.
    """
    return os.environ.get("REPRO_KERNEL", "").strip().lower() \
        not in _OFF_VALUES


def fits(op: str, num_live_vars: int) -> bool:
    """Can the kernel serve a live support of ``num_live_vars``?  A
    wider one is counted as a ``too_wide`` miss under ``op``."""
    if num_live_vars <= MAX_VARS:
        return True
    STATS.record_miss(op, MISS_TOO_WIDE)
    return False


@dataclass
class KernelStats:
    """Dispatch counters and per-operation kernel time.

    ``hits`` counts calls served by the kernel, ``misses`` calls that
    fell back to the BDD path while the kernel was enabled.  ``ops``
    breaks hits and wall time down by operation (``classes_for``,
    ``reduction_score``, ``kernel_refine``, ``composition``,
    ``merged_convert``, ``dsd_probe``, ``symmetry_assign``,
    ``symmetry_groups``); a ``kernel_refine`` op is one split of one
    output's cofactor state in the bound-set search
    (:mod:`repro.kernel.refine`), and a ``reduction_score`` op one
    candidate's score, assembled from those states or computed from
    scratch.  ``miss_causes`` splits the misses by
    :data:`MISS_CAUSES`.
    """

    hits: int = 0
    misses: int = 0
    #: Bound-set scores recomputed from scratch (full ``classes_for``)
    #: because the bound-set search's cofactor states could not serve.
    scratch: int = 0
    op_time: Dict[str, float] = field(default_factory=dict)
    op_hits: Dict[str, int] = field(default_factory=dict)
    op_misses: Dict[str, int] = field(default_factory=dict)
    miss_causes: Dict[str, int] = field(default_factory=dict)

    def record_hit(self, op: str, seconds: float) -> None:
        """Count one kernel-served op and add its wall ``seconds``.

        Unlike phase times, op times still include any cyclic garbage
        collection that ran inside the op.
        """
        self.hits += 1
        self.op_hits[op] = self.op_hits.get(op, 0) + 1
        self.op_time[op] = self.op_time.get(op, 0.0) + seconds

    def record_miss(self, op: str, cause: str = MISS_TOO_WIDE) -> None:
        self.misses += 1
        self.op_misses[op] = self.op_misses.get(op, 0) + 1
        self.miss_causes[cause] = self.miss_causes.get(cause, 0) + 1

    def record_scratch(self) -> None:
        self.scratch += 1

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict form for the metrics document (additive, schema 1)."""
        ops = {}
        for op in sorted(set(self.op_hits) | set(self.op_misses)):
            ops[op] = {
                "time_s": round(self.op_time.get(op, 0.0), 6),
                "hits": self.op_hits.get(op, 0),
                "misses": self.op_misses.get(op, 0),
            }
        return {
            "enabled": kernel_enabled(),
            "max_vars": MAX_VARS,
            "kernel_hits": self.hits,
            "kernel_misses": self.misses,
            "kernel_misses_by_cause": {
                cause: self.miss_causes.get(cause, 0)
                for cause in MISS_CAUSES},
            "kernel_refine": self.op_hits.get("kernel_refine", 0),
            "classes_from_scratch": self.scratch,
            "ops": ops,
        }


#: Module-level stats instance the dispatch sites report into (reset per
#: engine run by DecompositionEngine.run).
STATS = KernelStats()


def reset_kernel_stats() -> None:
    """Zero the dispatch counters (engine does this at run start)."""
    STATS.hits = 0
    STATS.misses = 0
    STATS.scratch = 0
    STATS.op_time.clear()
    STATS.op_hits.clear()
    STATS.op_misses.clear()
    STATS.miss_causes.clear()


def kernel_metrics() -> Dict[str, Any]:
    """Snapshot of the current dispatch counters."""
    return STATS.snapshot()


__all__ = [
    "KernelStats",
    "MAX_VARS",
    "MISS_CAUSES",
    "MISS_MISMATCH",
    "MISS_TOO_WIDE",
    "STATS",
    "fits",
    "kernel_enabled",
    "kernel_metrics",
    "reset_kernel_stats",
]
