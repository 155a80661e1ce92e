"""Metric snapshots and the machine-readable run-trace schema.

:class:`BddMetrics` is the snapshot the BDD manager fills from its
hot-path counters; :func:`run_metrics` combines it with an engine's
:class:`~repro.decomp.recursive.DecompositionStats` into the JSON
document the CLI's ``--metrics-out`` writes.  The document layout is
versioned through :data:`SCHEMA_VERSION` — additive changes keep the
version, renames/removals bump it (the benchmark tooling and any
external dashboards key on this).

This module is deliberately dependency-free: it reads counters and stats
duck-typed so the BDD manager can import it without a cycle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

#: Version of the ``--metrics-out`` JSON document layout.
SCHEMA_VERSION = 1

#: Bound-set score memo counters of a run (engine section and
#: ``--profile``), reported beside ``score_memo_evictions``.
_SCORE_MEMO_KEYS = ("score_memo_hits", "score_memo_misses",
                   "greedy_memo_hits", "greedy_memo_misses")


@dataclass
class BddMetrics:
    """Point-in-time snapshot of a BDD manager's hot-path counters."""

    num_vars: int
    #: Live nodes in the store (terminals included).
    nodes: int
    #: High-water mark of the node store over the manager's lifetime.
    peak_nodes: int
    unique_table_size: int
    computed_table_size: int
    computed_table_capacity: Optional[int]
    computed_hits: int
    computed_misses: int
    #: Number of clear-on-threshold evictions of the computed table.
    computed_evictions: int
    ite_calls: int
    restrict_calls: int

    @property
    def computed_hit_rate(self) -> float:
        """Computed-table hit rate in [0, 1] (0 when never queried)."""
        queries = self.computed_hits + self.computed_misses
        return self.computed_hits / queries if queries else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form with the derived hit rate included."""
        data = asdict(self)
        data["computed_hit_rate"] = round(self.computed_hit_rate, 6)
        return data


def run_metrics(*, command: str, source: str, stats: Any,
                bdd_metrics: Optional[BddMetrics] = None,
                wall_time_s: Optional[float] = None,
                result: Optional[Dict[str, Any]] = None,
                extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the versioned metrics document for one engine run.

    ``stats`` is a :class:`DecompositionStats` (duck-typed); ``result``
    carries the command-specific outcome (LUT/CLB/depth counts, ...).
    """
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "source": source,
    }
    if wall_time_s is not None:
        doc["wall_time_s"] = round(wall_time_s, 6)
    if result is not None:
        doc["result"] = result
    doc["engine"] = {
        "decomposition_steps": stats.decomposition_steps,
        "shannon_steps": stats.shannon_steps,
        "alphas_created": stats.alphas_created,
        "alphas_shared": stats.alphas_shared,
        "max_recursion_depth": stats.max_recursion_depth,
        "budget_exhausted": stats.budget_exhausted,
        "exact_cover_fallbacks": getattr(stats, "exact_cover_fallbacks", 0),
        "quarantined_outputs": list(
            getattr(stats, "quarantined_outputs", ()) or ()),
    }
    dsd = getattr(stats, "dsd", None)
    if dsd:
        doc["engine"]["dsd"] = dict(dsd)
    score_evictions = getattr(stats, "score_memo_evictions", 0)
    if score_evictions:
        doc["engine"]["score_memo_evictions"] = score_evictions
    memo_counts = _score_memo_counts(stats)
    if any(memo_counts.values()):
        doc["engine"].update(memo_counts)
    faults_fired = getattr(stats, "fault_metrics", None)
    if faults_fired:
        doc["faults"] = dict(faults_fired)
    kernel = getattr(stats, "kernel_metrics", None)
    if kernel is not None:
        doc["kernel"] = kernel
    doc["phases"] = {
        name: {"time_s": round(entry["time_s"], 6),
               "calls": entry["calls"]}
        for name, entry in stats.phase_profile().items()
    }
    if bdd_metrics is not None:
        doc["bdd"] = bdd_metrics.as_dict()
    if extra:
        doc.update(extra)
    return doc


def batch_metrics(*, source: str, job_rows: list,
                  totals: Dict[str, Any],
                  wall_time_s: Optional[float] = None,
                  cache_stats: Optional[Dict[str, Any]] = None,
                  extra: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """The batch-run variant of the metrics document.

    Same versioned envelope as :func:`run_metrics`, but instead of one
    engine's phase profile it carries per-job observability rows (queue
    wait, exec time, cache hit, retries, degradation — the dict form of
    :class:`repro.runtime.scheduler.JobResult`) plus batch totals and
    the result-cache counters.  Additive relative to schema version 1.
    """
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "batch",
        "source": source,
    }
    if wall_time_s is not None:
        doc["wall_time_s"] = round(wall_time_s, 6)
    doc["totals"] = totals
    if cache_stats is not None:
        doc["cache"] = cache_stats
    doc["jobs"] = job_rows
    if extra:
        doc.update(extra)
    return doc


def serve_metrics(stats: Dict[str, Any],
                  extra: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """The service-tier variant of the metrics document.

    Wraps a :meth:`repro.serve.daemon.ServeDaemon.stats` snapshot
    (request/queue/pool/cache/server counters) in the same versioned
    envelope as :func:`run_metrics`; this is what ``GET /metrics``
    returns.  Additive relative to schema version 1.
    """
    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "serve",
    }
    doc.update(stats)
    if extra:
        doc.update(extra)
    return doc


def _score_memo_counts(stats: Any) -> Dict[str, int]:
    return {name: getattr(stats, name, 0) for name in _SCORE_MEMO_KEYS}


def write_metrics(path: str, doc: Dict[str, Any]) -> None:
    """Write a metrics document as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")


def profile_report(stats: Any,
                   bdd_metrics: Optional[BddMetrics] = None) -> str:
    """Human-readable ``--profile`` summary: phases sorted by time, then
    the BDD counter block."""
    lines = ["phase profile (exclusive time):"]
    phases = stats.phase_profile()
    total = sum(entry["time_s"] for entry in phases.values())
    if not phases:
        lines.append("  (no phases recorded)")
    for name, entry in sorted(phases.items(),
                              key=lambda kv: -kv[1]["time_s"]):
        share = 100.0 * entry["time_s"] / total if total else 0.0
        lines.append(f"  {name:<22s} {entry['time_s']:9.4f} s "
                     f"({share:5.1f}%)  x{entry['calls']}")
    lines.append(f"  {'total instrumented':<22s} {total:9.4f} s")
    if bdd_metrics is not None:
        lines.append("bdd manager:")
        lines.append(f"  nodes               : {bdd_metrics.nodes}"
                     f" (peak {bdd_metrics.peak_nodes})")
        lines.append(f"  unique table        : "
                     f"{bdd_metrics.unique_table_size}")
        cap = bdd_metrics.computed_table_capacity
        lines.append(
            f"  computed table      : {bdd_metrics.computed_table_size}"
            + (f" / cap {cap}" if cap else " (unbounded)")
            + f", {bdd_metrics.computed_evictions} eviction(s)")
        lines.append(
            f"  computed hit rate   : "
            f"{100.0 * bdd_metrics.computed_hit_rate:.1f}% "
            f"({bdd_metrics.computed_hits} hits / "
            f"{bdd_metrics.computed_misses} misses)")
        lines.append(f"  ite calls           : {bdd_metrics.ite_calls}")
        lines.append(f"  restrict calls      : "
                     f"{bdd_metrics.restrict_calls}")
    kernel = getattr(stats, "kernel_metrics", None)
    if kernel is not None:
        state = "on" if kernel.get("enabled", True) else "off"
        lines.append(f"kernel (word-parallel, {state}, "
                     f"<= {kernel.get('max_vars')} vars):")
        lines.append(f"  dispatch            : {kernel['kernel_hits']} hits"
                     f" / {kernel['kernel_misses']} misses")
        causes = kernel.get("kernel_misses_by_cause")
        if causes:
            lines.append(f"  misses by cause     : "
                         f"{causes['too_wide']} too wide / "
                         f"{causes['mismatch']} table mismatch")
        refines = kernel.get("kernel_refine", 0)
        scratch = kernel.get("classes_from_scratch", 0)
        if refines or scratch:
            lines.append(f"  bound-set scoring   : {refines} cofactor "
                         f"splits / {scratch} from-scratch")
        for op, entry in kernel.get("ops", {}).items():
            lines.append(f"  {op:<20s}: {entry['time_s']:9.4f} s "
                         f"x{entry['hits']}"
                         + (f" (+{entry['misses']} fallback)"
                            if entry.get("misses") else ""))
    dsd = getattr(stats, "dsd", None)
    if dsd:
        pairs = ", ".join(f"{key}={dsd[key]}" for key in sorted(dsd))
        lines.append(f"dsd pre-pass (tier 0) : {pairs}")
    memo = _score_memo_counts(stats)
    if any(memo.values()):
        lines.append(f"score memo            : "
                     f"{memo['score_memo_hits']} hits / "
                     f"{memo['score_memo_misses']} misses; greedy picks "
                     f"{memo['greedy_memo_hits']} hits / "
                     f"{memo['greedy_memo_misses']} misses; "
                     f"{getattr(stats, 'score_memo_evictions', 0)} "
                     f"evictions")
    fallbacks = getattr(stats, "exact_cover_fallbacks", 0)
    if fallbacks:
        lines.append(f"exact-cover fallbacks : {fallbacks} "
                     f"(node budget hit, greedy cover used)")
    quarantined = getattr(stats, "quarantined_outputs", None)
    if quarantined:
        lines.append(f"quarantined outputs  : {', '.join(quarantined)} "
                     f"(MUX fallback, re-verified)")
        for name, error in sorted(
                getattr(stats, "quarantine_errors", {}).items()):
            lines.append(f"  {name:<20s}: {error}")
    faults_fired = getattr(stats, "fault_metrics", None)
    if faults_fired:
        lines.append("injected faults fired:")
        for key, count in sorted(faults_fired.items()):
            lines.append(f"  {key:<20s}: x{count}")
    return "\n".join(lines)
