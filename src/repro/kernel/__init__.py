"""Word-parallel truth-table kernel for the decomposition hot paths.

The ``--profile`` data in ``docs/PERFORMANCE.md`` shows the engine
spending most of its time in three phases — ``dc_step1_symmetry``,
``cofactors`` and ``clique_cover`` — all of which walk the pure-Python
ROBDD store one restrict/ITE call at a time, even though at the
recursion depths where they fire the live support is small.  This
package re-expresses those phases over *packed truth tables*
(``numpy.uint64`` words, 64 minterms per word):

* :mod:`repro.kernel.bitset` — the packed representation and the
  pack/unpack primitives (:class:`~repro.kernel.bitset.Bits`, row
  packing, mask integers);
* :mod:`repro.kernel.convert` — lossless, canonical ``BDD <-> bitset``
  conversion (equal functions convert to byte-identical tables and
  back to the *same* node ids, which is what makes the kernel results
  bit-identical to the BDD path);
* :mod:`repro.kernel.compat` — bound-set vertex cofactor extraction as
  strided slicing plus the ISF compatibility / running-intersection /
  greedy-cover pipeline as bitwise AND/OR over ``(lo, hi)`` mask pairs;
* :mod:`repro.kernel.symmetry` — (non)equivalence symmetry checks and
  the ``make_symmetric`` narrowing as shifted mask algebra against
  precomputed cofactor-plane selectors.

Dispatch is transparent and *tiered*: the call sites in
:mod:`repro.decomp.compat`, :mod:`repro.decomp.bound_set` and
:mod:`repro.symmetry.groups` route through the kernel when the live
support fits :func:`kernel_max_vars` (default 24, override with
``REPRO_KERNEL_MAX_VARS``) and fall back to the BDD path otherwise.
The compatible-class ops measure that support *per output*: each output
gets its own table domain (its live support plus the bound set), so a
multi-output bundle is served whenever its widest single output fits,
however wide the union of the outputs' supports.
Within the kernel, supports up to :func:`kernel_tier1_max_vars`
(default 16) use Python bignum masks (tier 1 — CPython's C bignum ops
beat numpy call overhead on small tables) and wider supports use
multi-word ``numpy.uint64`` arrays (tier 2, :mod:`repro.kernel.bitset2`)
— both tiers run the *same* cover/predicate code, so results are
bit-identical by construction.  ``REPRO_KERNEL=off`` disables the
kernel entirely (escape hatch; the differential test suite in
``tests/kernel/`` proves all paths produce identical results).

The symmetry ops additionally apply a *measured crossover*
(:func:`kernel_symmetry_min_vars`, default 16): below it the BDD path
is faster (the table<->BDD conversion at the wrapper boundary dominates
the predicate algebra), so dispatch declines without counting a miss.

Every dispatch decision is counted in a module-level
:class:`KernelStats` (reset per engine run): hits by tier, misses by
cause.  The snapshot lands in the versioned metrics document under
``"kernel"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict

try:  # numpy is a declared dependency, but the BDD path works without it.
    import numpy  # noqa: F401
    AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only on broken installs
    AVAILABLE = False

#: Default live-support cap for kernel dispatch (2**24 minterm tables,
#: served by the tier-2 numpy word arrays past the tier-1 boundary).
DEFAULT_MAX_VARS = 24

#: Default tier-1 (bignum mask) boundary; wider supports go tier-2.
DEFAULT_TIER1_MAX_VARS = 16

#: Measured crossover for the symmetry ops: below this live-support
#: width the BDD path is *usually* faster than lift/predicate/lower
#: through the kernel (the conversion at the wrapper boundary
#: dominates), so symmetry dispatch declines without counting a miss —
#: unless the operands are dense enough that the BDD path pays per-node
#: costs rivalling the whole packed table (see
#: :data:`DEFAULT_SYMMETRY_DENSITY_FACTOR`).
DEFAULT_SYMMETRY_MIN_VARS = 16

#: Below-crossover profitability factor for the symmetry ops: a
#: sub-``min_vars`` support is still served word-parallel when
#: ``node_count * factor >= 2**num_live`` (table bits).  Dense small
#: functions (a 10-var random table is ~400 joint nodes against 1024
#: bits) win on masks — measured 1.2-1.3x over the BDD path — while
#: sparse ones (where the BDD path is near-free) keep declining.  ``0``
#: disables the rule, restoring the pure threshold crossover.
DEFAULT_SYMMETRY_DENSITY_FACTOR = 3

#: Tier-2 profitability factor: a tier-2 dispatch is served only when
#: ``node_count * DEFAULT_COST_FACTOR >= table_words * num_outputs``.
#: BDD-path cost scales with the operands' node counts while table cost
#: scales with 2**n regardless of sparsity, so wide-but-sparse functions
#: (duke2's 22-input outputs are ~727 joint nodes) stay on the BDD path
#: where they are orders of magnitude cheaper, and wide dense functions
#: (where the BDD path is the catastrophe the benchmarks show) go word-
#: parallel.  64 approximates the measured per-node/per-word cost ratio
#: (~0.24 ms/knode BDD vs ~5.5 us/kword numpy on 20-var scoring).
DEFAULT_COST_FACTOR = 64

#: Why a dispatch fell back to the BDD path (``KernelStats`` miss
#: causes): the widest table is past :func:`kernel_max_vars`; the tier-2
#: cost model predicted the BDD path cheaper; or a
#: :class:`repro.kernel.convert.TableMismatchError` (stale ordering)
#: degraded the call.
MISS_TOO_WIDE = "too_wide"
MISS_COST_MODEL = "cost_model"
MISS_MISMATCH = "mismatch"
MISS_CAUSES = (MISS_TOO_WIDE, MISS_COST_MODEL, MISS_MISMATCH)

_OFF_VALUES = {"off", "0", "false", "no"}


def _env_int(name: str) -> int:
    """Integer env override, ``-1`` when unset or unparsable (callers
    substitute their default).

    Explicit negative values clamp to ``0`` — the smallest meaningful
    cap — so a degenerate setting like ``REPRO_KERNEL_MAX_VARS=-5``
    deterministically disables dispatch instead of silently restoring
    the default (which would *widen* what the user tried to narrow).
    """
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return -1


def kernel_enabled() -> bool:
    """Is kernel dispatch enabled?  (``REPRO_KERNEL=off`` disables it.)

    The environment is read on every call so tests and the CLI's
    ``--no-kernel`` can flip the switch mid-process.
    """
    if not AVAILABLE:
        return False
    return os.environ.get("REPRO_KERNEL", "").strip().lower() \
        not in _OFF_VALUES


def kernel_max_vars() -> int:
    """Live-support cap for dispatch (``REPRO_KERNEL_MAX_VARS`` override).

    Degenerate overrides get a sane clamp instead of misdispatch:
    negative values behave as ``0`` (kernel never serves), unparsable
    values fall back to the default.  A tier-1 override *larger* than
    this cap is clamped down by :func:`kernel_tier1_max_vars`, so
    ``tier_for`` always honours ``tier1 <= max``.
    """
    value = _env_int("REPRO_KERNEL_MAX_VARS")
    return value if value >= 0 else DEFAULT_MAX_VARS


def kernel_tier1_max_vars() -> int:
    """Tier-1 (bignum) boundary; ``REPRO_KERNEL_TIER1_MAX_VARS`` override.

    Never exceeds :func:`kernel_max_vars`, so lowering the overall cap
    (e.g. ``REPRO_KERNEL_MAX_VARS=4``) keeps its historical meaning.
    Setting the override to ``0`` forces every dispatch onto tier 2 —
    the lever the three-way differential tests use.
    """
    value = _env_int("REPRO_KERNEL_TIER1_MAX_VARS")
    if value < 0:
        value = DEFAULT_TIER1_MAX_VARS
    return min(value, kernel_max_vars())


def kernel_symmetry_min_vars() -> int:
    """Measured symmetry-op crossover
    (``REPRO_KERNEL_SYMMETRY_MIN_VARS`` override; ``0`` = always kernel).
    """
    value = _env_int("REPRO_KERNEL_SYMMETRY_MIN_VARS")
    return value if value >= 0 else DEFAULT_SYMMETRY_MIN_VARS


def kernel_symmetry_density_factor() -> int:
    """Below-crossover density rule for the symmetry ops
    (``REPRO_KERNEL_SYMMETRY_DENSITY`` override; ``0`` disables the
    rule and restores the pure ``min_vars`` threshold)."""
    value = _env_int("REPRO_KERNEL_SYMMETRY_DENSITY")
    return value if value >= 0 else DEFAULT_SYMMETRY_DENSITY_FACTOR


def kernel_cost_model() -> bool:
    """Is the tier-2 profitability model active?
    (``REPRO_KERNEL_COST_MODEL=off`` serves every fitting support —
    the lever the forced-tier-2 differential tests use.)
    """
    return os.environ.get("REPRO_KERNEL_COST_MODEL", "").strip().lower() \
        not in _OFF_VALUES


def tier_for(num_live_vars: int) -> int:
    """Kernel tier serving a live support: ``1`` (bignum masks), ``2``
    (numpy word arrays) or ``0`` (too wide — BDD fallback)."""
    if num_live_vars <= kernel_tier1_max_vars():
        return 1
    if num_live_vars <= kernel_max_vars():
        return 2
    return 0


@dataclass
class KernelStats:
    """Dispatch counters and per-operation kernel time.

    ``hits`` counts calls served by the kernel, ``misses`` calls that
    fell back to the BDD path while the kernel was enabled.  ``ops``
    breaks hits and wall time down by operation (``classes_for``,
    ``reduction_score``, ``assign_by_classes``, ``symmetry_assign``,
    ``symmetry_groups``); ``tier_hits`` splits the hits by the tier that
    served them (1 = bignum masks, 2 = ``Words``) and ``miss_causes``
    the misses by :data:`MISS_CAUSES`.  Every dispatch site passes its
    tier and cause explicitly.
    """

    hits: int = 0
    misses: int = 0
    #: Bound-set scores recomputed from scratch (full ``classes_for``)
    #: because the incremental partition refinement could not serve.
    scratch: int = 0
    op_time: Dict[str, float] = field(default_factory=dict)
    op_hits: Dict[str, int] = field(default_factory=dict)
    op_misses: Dict[str, int] = field(default_factory=dict)
    tier_hits: Dict[int, int] = field(default_factory=dict)
    miss_causes: Dict[str, int] = field(default_factory=dict)

    def record_hit(self, op: str, seconds: float, tier: int = 1) -> None:
        self.hits += 1
        self.op_hits[op] = self.op_hits.get(op, 0) + 1
        self.op_time[op] = self.op_time.get(op, 0.0) + seconds
        self.tier_hits[tier] = self.tier_hits.get(tier, 0) + 1

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
            "max_vars": kernel_max_vars(),
            "tier1_max_vars": kernel_tier1_max_vars(),
            "symmetry_min_vars": kernel_symmetry_min_vars(),
            "cost_model": kernel_cost_model(),
            "kernel_hits": self.hits,
            "kernel_misses": self.misses,
            "kernel_hits_by_tier": {
                str(tier): self.tier_hits.get(tier, 0) for tier in (1, 2)},
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
    STATS.tier_hits.clear()
    STATS.miss_causes.clear()


def kernel_metrics() -> Dict[str, Any]:
    """Snapshot of the current dispatch counters."""
    return STATS.snapshot()


__all__ = [
    "AVAILABLE",
    "DEFAULT_COST_FACTOR",
    "DEFAULT_MAX_VARS",
    "DEFAULT_SYMMETRY_DENSITY_FACTOR",
    "DEFAULT_SYMMETRY_MIN_VARS",
    "DEFAULT_TIER1_MAX_VARS",
    "KernelStats",
    "MISS_CAUSES",
    "MISS_COST_MODEL",
    "MISS_MISMATCH",
    "MISS_TOO_WIDE",
    "STATS",
    "kernel_cost_model",
    "kernel_enabled",
    "kernel_max_vars",
    "kernel_metrics",
    "kernel_symmetry_density_factor",
    "kernel_symmetry_min_vars",
    "kernel_tier1_max_vars",
    "reset_kernel_stats",
    "tier_for",
]
