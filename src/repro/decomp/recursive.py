"""The recursive multi-output decomposition drivers.

:class:`DecompositionEngine` implements both algorithms compared in the
paper's Table 1:

* ``mulopII`` — no don't-care exploitation: at every recursion level each
  output is completed by assigning all don't cares to 0 (the paper's
  footnote), then decomposed with common decomposition functions;
* ``mulop-dc`` — the paper's contribution: the three-step don't-care
  assignment (symmetry, sharing, single-output) runs before the classes
  are encoded.

A decomposition step w.r.t. a bound set ``B`` (``|B| = p <= n_LUT``)
replaces each decomposable output by its composition function over the
shared decomposition functions ``alpha`` (realised as ``p``-input LUTs)
and the free variables.  Following the paper, every output uses the
*minimum* number of decomposition functions
``r_i = ceil(log2 ncc_i)``; an output joins the step only when that
strictly shrinks its support (``r_i < |S_i intersect B|``) — other
outputs ride along unchanged and are reconsidered at the next level.
The union of all alphas is minimised by the common-function selection.
When no candidate bound set helps any output, a Shannon step (3-input
MUX) guarantees termination.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF, MultiFunction
from repro.decomp.bound_set import rank_bound_sets
from repro.decomp.compat import classes_for, partition_classes
from repro.decomp.dontcare import (
    assign_step1_symmetry,
    assign_step2_sharing,
    assign_step3_single,
    dc_step_classes,
)
from repro.decomp.dsd import (
    DsdChain,
    DsdConst,
    DsdCore,
    DsdMux,
    chain_table,
    dsd_enabled,
    shatter,
)
from repro.decomp.encoding import build_composition_for_output
from repro.decomp.multi import select_common_alphas
from repro.kernel import STATS as KERNEL_STATS
from repro.kernel import kernel_metrics, reset_kernel_stats
from repro.kernel.convert import TableMismatchError
from repro.kernel.refine import CofactorStore, PartitionCache
from repro.mapping.lutnet import CONST0, CONST1, LutNetwork
from repro.obs.metrics import BddMetrics
from repro.obs.profiler import PhaseProfiler, activate_profiler, profile_phase
from repro.symmetry.groups import symmetry_domain

#: Exception classes a single output may fail with and still leave the
#: rest of the bundle salvageable: recursion blow-ups, memory
#: exhaustion, and injected chaos faults.  Anything else is a bug and
#: propagates.
QUARANTINABLE = (RecursionError, MemoryError, faults.FaultInjected)

#: Environment override for the engine's recursion-limit raise.
RECURSION_LIMIT_ENV = "REPRO_RECURSION_LIMIT"

#: ``base + per_var * n`` recursion frames requested at engine entry.
_RECURSION_BASE = 3000
_RECURSION_PER_VAR = 200

#: Score-memo bounds, mirroring the kernel convert caches' policy
#: (clear wholesale on entry-count or byte overflow, count the
#: eviction): entries are ``((outputs, p), candidate) -> score`` tuples
#: and one ``((outputs, p), "greedy", support) -> pick`` per ranking.
_SCORE_MEMO_LIMIT = 50000
_SCORE_MEMO_BYTES = 32 * 1024 * 1024


def _required_recursion_limit(num_vars: int) -> int:
    """Recursion headroom for a function of ``num_vars`` inputs.

    The engine recurses once per Shannon split in the worst case, and
    each engine level sits on a deep stack of BDD-walk frames, so the
    need grows with the variable count.  ``REPRO_RECURSION_LIMIT``
    overrides the heuristic outright.
    """
    env = os.environ.get(RECURSION_LIMIT_ENV)
    if env:
        return max(1000, int(env))
    return _RECURSION_BASE + _RECURSION_PER_VAR * num_vars


@dataclass
class StepRecord:
    """One accepted decomposition step, for tracing/reporting."""

    depth: int
    bound: Tuple[int, ...]
    num_outputs: int
    included: int
    alphas_used: int
    sum_r: int
    joint_min_r: int


@dataclass
class DecompositionStats:
    """Counters collected across one driver run."""

    decomposition_steps: int = 0
    shannon_steps: int = 0
    alphas_created: int = 0
    alphas_shared: int = 0          # sum over steps of (sum r_i - r_union)
    joint_lower_bounds: List[int] = field(default_factory=list)
    max_recursion_depth: int = 0
    #: True when the wall-clock budget expired and part of the network
    #: came from the fast BDD/MUX fallback.
    budget_exhausted: bool = False
    #: Per-step trace (bound set, sharing, ...), in acceptance order.
    steps: List[StepRecord] = field(default_factory=list)
    #: Exclusive wall-clock seconds per engine phase (see repro.obs).
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: Entry counts per engine phase.
    phase_counts: Dict[str, int] = field(default_factory=dict)
    #: BDD manager counter snapshot taken when the run finished.
    bdd_metrics: Optional[BddMetrics] = None
    #: Word-parallel kernel dispatch snapshot (see repro.kernel).
    kernel_metrics: Optional[Dict] = None
    #: Times the exact clique cover hit its node budget and silently
    #: degraded to the greedy cover (repro.decomp.cover).
    exact_cover_fallbacks: int = 0
    #: Output names that failed the joint decomposition with a
    #: containable error (RecursionError/MemoryError/injected fault) and
    #: were realised by the verified MUX fallback instead.
    quarantined_outputs: List[str] = field(default_factory=list)
    #: ``{output name: "ErrorType: message"}`` for quarantined outputs.
    quarantine_errors: Dict[str, str] = field(default_factory=dict)
    #: Injected-fault fires observed during this run (``{"site:kind":
    #: count}`` delta; None when no faults are armed).
    fault_metrics: Optional[Dict[str, int]] = None
    #: Tier-0 DSD pre-pass counters: ``probes``, ``shattered``,
    #: ``and_peels``/``or_peels``/``xor_peels``, ``mux_splits``,
    #: ``dead_vars``, ``const_leaves``, ``cores``, ``chain_luts``.
    dsd: Dict[str, int] = field(default_factory=dict)
    #: Always empty; perfbench's span wrapper is its only reader.
    submemo: Dict[str, int] = field(default_factory=dict)
    #: Times the bound-set score memo overflowed its entry/byte budget
    #: and was cleared wholesale (the convert-cache policy).
    score_memo_evictions: int = 0
    #: Bound-set score memo lookups: candidate scores, and greedy picks
    #: (one per ranking), found in the memo or computed.
    score_memo_hits: int = 0
    score_memo_misses: int = 0
    greedy_memo_hits: int = 0
    greedy_memo_misses: int = 0

    def phase_profile(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"time_s": ..., "calls": ...}}`` for this run."""
        return {name: {"time_s": self.phase_times[name],
                       "calls": self.phase_counts.get(name, 0)}
                for name in self.phase_times}

    def report(self) -> str:
        """Multi-line human-readable trace of the run."""
        lines = [
            f"decomposition steps : {self.decomposition_steps}",
            f"Shannon fallbacks   : {self.shannon_steps}",
            f"alphas created      : {self.alphas_created}"
            f" (sharing saved {self.alphas_shared})",
            f"max recursion depth : {self.max_recursion_depth}",
        ]
        for name, secs in sorted(self.phase_times.items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"  phase {name:<20s}: {secs:.4f} s "
                         f"x{self.phase_counts.get(name, 0)}")
        if self.dsd:
            parts = ", ".join(f"{key}={value}"
                              for key, value in sorted(self.dsd.items()))
            lines.append(f"dsd pre-pass        : {parts}")
        if self.score_memo_hits or self.score_memo_misses:
            lines.append(f"score memo          : {self.score_memo_hits} "
                         f"hits / {self.score_memo_misses} misses; greedy "
                         f"picks {self.greedy_memo_hits} hits / "
                         f"{self.greedy_memo_misses} misses")
        if self.score_memo_evictions:
            lines.append(f"score memo evictions: "
                         f"{self.score_memo_evictions}")
        if self.budget_exhausted:
            lines.append("budget exhausted    : yes (MUX fallback used)")
        if self.quarantined_outputs:
            lines.append(
                f"quarantined outputs : "
                f"{', '.join(self.quarantined_outputs)}")
            for name, error in sorted(self.quarantine_errors.items()):
                lines.append(f"  quarantine {name:<12s}: {error}")
        if self.fault_metrics:
            for key, count in sorted(self.fault_metrics.items()):
                lines.append(f"  fault {key:<20s}: fired x{count}")
        for i, s in enumerate(self.steps):
            lines.append(
                f"  step {i:3d} depth={s.depth} bound={s.bound} "
                f"outputs={s.included}/{s.num_outputs} "
                f"alphas={s.alphas_used} (sum r_i={s.sum_r}, "
                f"joint bound={s.joint_min_r})")
        return "\n".join(lines)


@dataclass
class _Step:
    """An accepted decomposition step."""

    bound: Tuple[int, ...]
    pool: list
    encodings: list
    included: Set[int]
    joint_min_r: int
    gain: int = 0


def _gain_bound(cache: Optional[PartitionCache], bound: Tuple[int, ...],
                score: Tuple[int, int, int]) -> int:
    """An upper bound on the gain of
    :meth:`DecompositionEngine._evaluate_candidate` on the ranking view
    for a ranked candidate: its reduction ``-score[0]``, tightened by
    the alphas its outputs need when the ranking's cache is at hand
    (:meth:`PartitionCache.gain_bound`, read off the run's cofactor
    states)."""
    if cache is None:
        return -score[0]
    try:
        return cache.gain_bound(bound)
    except TableMismatchError:
        return -score[0]


class DecompositionEngine:
    """Configurable recursive decomposer.

    Parameters
    ----------
    n_lut:
        LUT input count of the target architecture (5 for XC3000).
    use_dontcares:
        ``False`` reproduces ``mulopII`` (don't cares -> 0 each level);
        ``True`` enables the three-step assignment (``mulop-dc``).
    use_symmetry_step / use_sharing_step / use_single_step:
        Individual toggles for the three steps (for the ablation bench).
    max_candidates / try_candidates:
        Width of the bound-set search and how many ranked candidates may
        be fully evaluated per step.
    balanced:
        Use balanced bound sets (``p ~ |support| / 2``, capped at
        ``balanced_max_p``) in the style of the communication-based
        multilevel synthesis the paper builds on [11, 21]; decomposition
        functions wider than ``n_lut`` are decomposed recursively as a
        multi-output bundle.  This is the mode behind the paper's
        two-input-gate results (Figures 2 and 3).
    time_budget:
        Optional wall-clock budget in seconds.  When exceeded, the
        remaining work is finished with a fast BDD/MUX mapping instead
        of the full search (quality degrades gracefully, runtime stays
        bounded — an engineering concession of the pure-Python
        reproduction; the 1997 C implementation needed no such budget).
    node_budget:
        Optional cap on the BDD manager's node count with the same
        fallback — bounds memory the way ``time_budget`` bounds time.
    use_dsd:
        Tier-0 structural pre-pass (see :mod:`repro.decomp.dsd`):
        ``None`` follows the ``REPRO_DSD`` environment switch (default
        on), ``True``/``False`` force it for this engine.
    """

    def __init__(self, n_lut: int = 5, use_dontcares: bool = True,
                 use_symmetry_step: bool = True,
                 use_sharing_step: bool = True,
                 use_single_step: bool = True,
                 max_candidates: int = 24,
                 try_candidates: int = 6,
                 balanced: bool = False,
                 balanced_max_p: int = 8,
                 time_budget: Optional[float] = None,
                 node_budget: Optional[int] = None,
                 use_dsd: Optional[bool] = None) -> None:
        if n_lut < 2:
            raise ValueError("n_lut must be at least 2")
        self.n_lut = n_lut
        self.use_dontcares = use_dontcares
        self.use_symmetry_step = use_symmetry_step and use_dontcares
        self.use_sharing_step = use_sharing_step and use_dontcares
        self.use_single_step = use_single_step and use_dontcares
        self.max_candidates = max_candidates
        self.try_candidates = try_candidates
        self.balanced = balanced
        self.balanced_max_p = balanced_max_p
        self.time_budget = time_budget
        self.node_budget = node_budget
        self.use_dsd = use_dsd
        self._dsd_active = False
        self.reset()

    def reset(self) -> None:
        """Clear every piece of per-run state.

        One engine instance may decompose several ``MultiFunction``\\ s
        (possibly living in different BDD managers); all of the memos
        below key on node ids or reference signals of the previous run's
        network, so carrying any of them across runs silently corrupts
        the next result.  :meth:`run` calls this at entry.
        """
        self.stats = DecompositionStats()
        self.profiler = PhaseProfiler()
        # Shannon-cooldown heuristic state: stale True would give the
        # next run's first Shannon children an unearned search cooldown.
        self._last_rank_empty = False
        self._deadline: Optional[float] = None
        self._fault_mid: Optional[callable] = None
        self._mux_memo: Dict[int, str] = {}
        #: Bound-set score memo shared across the recursion: sibling
        #: branches re-rank identical (outputs, p) queries after a
        #: Shannon split or shared-step regrouping; keyed by the
        #: ranking view's (lo, hi) node pairs the scores are exact.
        self._score_memo: Dict = {}
        #: Per-output cofactor states of the bound-set search, shared by
        #: every ranking, greedy growth and evaluation of the run (keyed
        #: by node-id pairs, so per-run like every memo here).
        self._cofactors = CofactorStore()
        #: Intervals the DSD probe already found irreducible (per run —
        #: keys are node-id pairs).
        self._dsd_irreducible: Set[Tuple[int, int]] = set()
        self._dsd_counter = 0
        #: Estimated bytes held by ``_score_memo`` (entries are keyed
        #: by node-id tuples, so like every memo here it is per-run).
        self._score_memo_bytes = 0

    # ------------------------------------------------------------------

    def run(self, func: MultiFunction) -> LutNetwork:
        """Decompose ``func`` into a LUT network with ``n_lut``-input LUTs.

        Containment contract: a :data:`QUARANTINABLE` failure (recursion
        blow-up, memory exhaustion, injected chaos fault) during the
        joint decomposition triggers a per-output rerun; outputs that
        fail *individually* are quarantined to the verified MUX fallback
        while the rest still get the full search.  Quarantined outputs
        are listed in ``stats.quarantined_outputs`` and their cones are
        re-verified against the specification before the run returns.
        """
        self.reset()
        self._dsd_active = dsd_enabled() if self.use_dsd is None \
            else bool(self.use_dsd)
        reset_kernel_stats()
        self._fault_mid = faults.hook("worker.mid_decomp")
        fault_baseline = faults.counters()
        self._deadline = (time.monotonic() + self.time_budget
                          if self.time_budget is not None else None)
        named = list(zip(func.output_names, func.outputs))
        # The recursion depth scales with the variable count (Shannon
        # chains with BDD-walk frames below each level); raise the limit
        # proportionally so wide functions do not die on the default.
        old_limit = sys.getrecursionlimit()
        needed = _required_recursion_limit(len(func.inputs))
        if needed > old_limit:
            sys.setrecursionlimit(needed)
        try:
            try:
                net, signal_of = self._fresh_net(func)
                with activate_profiler(self.profiler):
                    signals = self._decompose(func.bdd, named, net,
                                              signal_of, depth=0)
            except QUARANTINABLE as exc:
                net, signals = self._quarantine_rerun(func, named, exc)
            for name, _ in named:
                net.set_output(name, signals[name])
            if self.stats.quarantined_outputs:
                net.sweep()  # shed partial nodes of aborted attempts
                self._verify_quarantined(func, net)
        finally:
            if needed > old_limit:
                sys.setrecursionlimit(old_limit)
        self.stats.phase_times = dict(self.profiler.times)
        self.stats.phase_counts = dict(self.profiler.counts)
        self.stats.bdd_metrics = func.bdd.metrics()
        self.stats.kernel_metrics = kernel_metrics()
        self.stats.exact_cover_fallbacks = \
            self.profiler.events.get("exact_cover_fallback", 0)
        fired = faults.counters()
        delta = {key: count - fault_baseline.get(key, 0)
                 for key, count in fired.items()
                 if count - fault_baseline.get(key, 0) > 0}
        self.stats.fault_metrics = delta or None
        return net

    def _fresh_net(self, func: MultiFunction
                   ) -> Tuple[LutNetwork, Dict[int, str]]:
        """A new network with the function's primary inputs declared."""
        net = LutNetwork()
        signal_of: Dict[int, str] = {}
        for var, name in zip(func.inputs, func.input_names):
            net.add_input(name)
            signal_of[var] = name
        return net, signal_of

    def _quarantine_rerun(self, func: MultiFunction,
                          named: List[Tuple[str, ISF]],
                          cause: BaseException
                          ) -> Tuple[LutNetwork, Dict[str, str]]:
        """Per-output salvage after a containable joint-run failure.

        The partial network of the failed joint attempt is discarded
        (its memoised signal names would dangle); every output is then
        decomposed on its own, and an output that *still* fails is
        quarantined: realised by the MUX fallback (under fault
        suppression — the fallback is recovery code and must complete)
        and recorded in the stats.
        """
        self.profiler.event("quarantine_rerun")
        bdd = func.bdd
        net, signal_of = self._fresh_net(func)
        self._mux_memo = {}
        signals: Dict[str, str] = {}
        for name, isf in named:
            try:
                self._fault_mid = faults.hook("worker.mid_decomp")
                with activate_profiler(self.profiler):
                    part = self._decompose(bdd, [(name, isf)], net,
                                           signal_of, depth=0)
                signals[name] = part[name]
            except QUARANTINABLE as exc:
                self.stats.quarantined_outputs.append(name)
                self.stats.quarantine_errors[name] = \
                    f"{type(exc).__name__}: {exc}"
                # Recovery path: the MUX walk is bounded by BDD size and
                # must not be re-failed by the same armed fault.
                with faults.suppressed():
                    self._fault_mid = None
                    f = self._choose_extension(bdd, isf)
                    signals[name] = self._mux_map(bdd, f, net, signal_of)
        if not self.stats.quarantined_outputs:
            # The per-output rerun succeeded everywhere — the original
            # failure was a bundle-level artefact (e.g. a joint
            # recursion blow-up).  Record the cause against every
            # output for observability, but nothing was degraded.
            self.profiler.event("quarantine_rerun_clean")
        return net, signals

    def _verify_quarantined(self, func: MultiFunction,
                            net: LutNetwork) -> None:
        """Check every quarantined cone realises an extension of its ISF.

        A quarantined output bypassed parts of the normal pipeline, so
        its (cheap, MUX-built) cone is re-verified unconditionally; a
        mismatch here is a real bug and raises instead of shipping a
        wrong network with an "ok"-looking record.
        """
        from repro.verify.equiv import lut_network_bdds
        with faults.suppressed(), profile_phase("quarantine_verify"):
            bdd = func.bdd
            input_vars = dict(zip(func.input_names, func.inputs))
            impl = lut_network_bdds(net, bdd, input_vars)
            spec_of = dict(zip(func.output_names, func.outputs))
            for name in self.stats.quarantined_outputs:
                g = impl[name]
                isf = spec_of[name]
                if not (bdd.leq(isf.lo, g) and bdd.leq(g, isf.hi)):
                    raise RuntimeError(
                        f"quarantined output {name!r} failed extension "
                        f"verification after MUX fallback "
                        f"(cause: {self.stats.quarantine_errors[name]})")

    # ------------------------------------------------------------------

    def _choose_extension(self, bdd: BDD, isf: ISF) -> int:
        """Completion heuristic for a leaf LUT: the smaller interval end."""
        if isf.is_complete():
            return isf.lo
        if bdd.node_count(isf.hi) < bdd.node_count(isf.lo):
            return isf.hi
        return isf.lo

    def _emit_leaf(self, bdd: BDD, isf: ISF, net: LutNetwork,
                   signal_of: Dict[int, str]) -> str:
        """Realise a function whose support fits one LUT."""
        f = self._choose_extension(bdd, isf)
        support = sorted(bdd.support(f))
        if not support:
            return CONST1 if f == BDD.TRUE else CONST0
        table = bdd.to_truth_table(f, support)
        return net.add_lut([signal_of[v] for v in support], table)

    def _past_deadline(self) -> bool:
        return self._deadline is not None \
            and time.monotonic() >= self._deadline

    # -- tier-0 DSD pre-pass -------------------------------------------

    def _dsd_bump(self, key: str, n: int = 1) -> None:
        self.stats.dsd[key] = self.stats.dsd.get(key, 0) + n

    def _dsd_probe(self, bdd: BDD, isf: ISF, multi: bool):
        """Shatter one output/core, or ``None`` when nothing useful fired.

        In no-DC mode the probe sees the 0-completion (``mulopII``
        assigns every don't care to 0); in DC mode it sees the raw
        interval, so every peel doubles as a conservative don't-care
        assignment.  Irreducible and rejected intervals are memoised per
        run — compositions frequently resurface unchanged after a
        sibling's step.
        """
        probe_isf = isf if self.use_dontcares else ISF.complete(isf.lo)
        key = (probe_isf.lo, probe_isf.hi, multi)
        if key in self._dsd_irreducible:
            return None
        local: Dict[str, int] = {}
        with profile_phase("dsd"):
            plan = shatter(bdd, probe_isf, self.n_lut, local)
        if plan is not None and not self._plan_worthwhile(bdd, plan,
                                                          multi):
            plan = None
            self._dsd_bump("rejected_plans")
        if plan is None:
            self._dsd_irreducible.add(key)
            self._dsd_bump("probes", local.get("probes", 0))
            return None
        for counter, count in local.items():
            self._dsd_bump(counter, count)
        return plan

    def _plan_worthwhile(self, bdd: BDD, plan, multi: bool) -> bool:
        """Adopt a plan only on strong structural evidence.

        Partial plans (a still-wide core) perturb the ncc search on the
        residue, and XOR peels in a multi-output bundle privatise
        parity-shell logic the joint step would have shared (the
        ``rd73``/``rd84`` sum outputs); the Table 1 tuning shows both
        losing more than the peel saves unless the peels fill at least
        one whole chain LUT (``n_lut - 1`` literals).  A complete
        shatter free of those hazards bypasses the search outright and
        is always taken.
        """
        peels = 0
        xor_peels = 0
        wide_cores = 0
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, DsdChain):
                peels += len(node.peels)
                xor_peels += sum(1 for kind, _, _ in node.peels
                                 if kind == "xor")
                stack.append(node.child)
            elif isinstance(node, DsdMux):
                stack.append(node.hi)
                stack.append(node.lo)
            elif isinstance(node, DsdCore):
                if len(node.isf.support(bdd)) > self.n_lut:
                    wide_cores += 1
        full_lut = peels >= self.n_lut - 1
        if wide_cores and not full_lut:
            return False
        if multi and xor_peels and not full_lut:
            return False
        return True

    def _name_cores(self, plan, base: str) -> List[DsdCore]:
        """Assign run-unique names to the plan's cores, in tree order."""
        cores: List[DsdCore] = []

        def walk(node) -> None:
            if isinstance(node, DsdCore):
                self._dsd_counter += 1
                node.name = f"{base}~d{self._dsd_counter}"
                cores.append(node)
            elif isinstance(node, DsdChain):
                walk(node.child)
            elif isinstance(node, DsdMux):
                walk(node.hi)
                walk(node.lo)

        walk(plan)
        return cores

    def _resolve_plan(self, name: str, plans: Dict[str, object],
                      signals: Dict[str, str], net: LutNetwork,
                      signal_of: Dict[int, str]) -> str:
        """Signal of a shattered output, emitting its plan on demand."""
        sig = signals.get(name)
        if sig is None:
            sig = self._emit_plan(plans[name], plans, signals, net,
                                  signal_of)
            signals[name] = sig
        return sig

    def _emit_plan(self, plan, plans: Dict[str, object],
                   signals: Dict[str, str], net: LutNetwork,
                   signal_of: Dict[int, str]) -> str:
        """Emit one plan tree bottom-up; returns its root signal."""
        if isinstance(plan, DsdConst):
            return CONST1 if plan.value else CONST0
        if isinstance(plan, DsdCore):
            # The core went through the normal flow (or was itself
            # shattered at a later level and has a nested plan).
            return self._resolve_plan(plan.name, plans, signals, net,
                                      signal_of)
        if isinstance(plan, DsdMux):
            hi = self._emit_plan(plan.hi, plans, signals, net, signal_of)
            lo = self._emit_plan(plan.lo, plans, signals, net, signal_of)
            return self._mux(net, signal_of[plan.var], hi, lo)
        # DsdChain: pack the peels innermost-first into LUTs taking
        # (n_lut - 1) literals plus the running child signal each —
        # ceil(k / (n_lut - 1)) LUTs for k peeled literals.
        sig = self._emit_plan(plan.child, plans, signals, net, signal_of)
        peels = plan.peels
        width = max(1, self.n_lut - 1)
        i = len(peels)
        while i > 0:
            j = max(0, i - width)
            chunk = peels[j:i]
            fanins = [signal_of[var] for _, var, _ in chunk] + [sig]
            sig = net.add_lut(fanins, chain_table(chunk), name_hint="dsd")
            self._dsd_bump("chain_luts")
            i = j
        return sig

    def _decompose(self, bdd: BDD, named: List[Tuple[str, ISF]],
                   net: LutNetwork, signal_of: Dict[int, str],
                   depth: int, search_cooldown: int = 0) -> Dict[str, str]:
        """Decompose one bundle: level iteration plus DSD plan emission.

        The level worker records a *plan* for every output (or core) the
        tier-0 pre-pass shattered instead of a signal; once all residual
        cores have signals, the plans are emitted bottom-up — chains as
        packed literal LUTs, MUX splits through the shared MUX emitter.
        """
        plans: Dict[str, object] = {}
        signals = self._decompose_levels(bdd, named, net, signal_of,
                                         depth, search_cooldown, plans)
        if plans:
            with profile_phase("dsd"):
                for name in list(plans):
                    self._resolve_plan(name, plans, signals, net,
                                       signal_of)
        return signals

    def _decompose_levels(self, bdd: BDD, named: List[Tuple[str, ISF]],
                          net: LutNetwork, signal_of: Dict[int, str],
                          depth: int, search_cooldown: int,
                          plans: Dict[str, object]) -> Dict[str, str]:
        """Main worker: iterates decomposition levels on one bundle.

        ``search_cooldown`` skips the (expensive) bound-set search for
        that many levels — used right after a Shannon step whose level
        found no candidates at all, since removing one variable rarely
        creates new ones.
        """
        signals: Dict[str, str] = {}
        pending = list(named)
        while pending:
            if self._fault_mid is not None:
                self._fault_mid()  # chaos site: worker.mid_decomp
            self.stats.max_recursion_depth = max(
                self.stats.max_recursion_depth, depth)
            # (The computed table bounds its own memory now — the manager
            # clears it at BDD.cache_limit and counts the eviction.)
            still: List[Tuple[str, ISF]] = []
            for name, isf in pending:
                if self.use_dontcares and not isf.is_complete():
                    # Don't-care based support minimisation: an ISF often
                    # admits an extension independent of some variables.
                    # Crucial for composition functions, whose unused-code
                    # upper bound otherwise inflates the measured support.
                    with profile_phase("reduce_support"):
                        isf = isf.reduce_support(bdd)
                if len(isf.support(bdd)) <= self.n_lut:
                    with profile_phase("leaf_emit"):
                        signals[name] = self._emit_leaf(bdd, isf, net,
                                                        signal_of)
                    continue
                plan = None
                # Past the deadline the level falls back to the MUX walk
                # below, so a probe would only add to the overrun.
                if self._dsd_active and name not in plans \
                        and not self._past_deadline():
                    plan = self._dsd_probe(bdd, isf,
                                           multi=len(pending) > 1)
                if plan is None:
                    still.append((name, isf))
                    continue
                # Shattered: record the plan, leaf-emit the LUT-sized
                # cores right away and keep the wide ones in the flow
                # under fresh names the plan tree references.
                self._dsd_bump("shattered")
                plans[name] = plan
                for core in self._name_cores(plan, name):
                    self._dsd_bump("cores")
                    if len(core.isf.support(bdd)) <= self.n_lut:
                        with profile_phase("leaf_emit"):
                            signals[core.name] = self._emit_leaf(
                                bdd, core.isf, net, signal_of)
                    else:
                        still.append((core.name, core.isf))
            pending = still
            if not pending:
                break

            # Split support-disjoint outputs: a shared bound set cannot
            # help them and the split keeps search spaces small.
            components = self._components(bdd, pending)
            if len(components) > 1:
                for component in components:
                    signals.update(self._decompose(
                        bdd, component, net, signal_of, depth + 1))
                return signals

            over_time = self._past_deadline()
            over_nodes = (self.node_budget is not None
                          and len(bdd) > self.node_budget)
            if over_time or over_nodes:
                self.stats.budget_exhausted = True
                for name, isf in pending:
                    f = self._choose_extension(bdd, isf)
                    signals[name] = self._mux_map(bdd, f, net, signal_of)
                return signals

            outputs = [isf for _, isf in pending]
            if not self.use_dontcares:
                outputs = [ISF.complete(o.lo) for o in outputs]

            if search_cooldown > 0:
                signals.update(self._shannon_step(
                    bdd, pending, outputs, net, signal_of, depth,
                    cooldown=search_cooldown - 1))
                return signals

            support = set()
            for isf in outputs:
                support |= isf.support(bdd)
            support = sorted(support)

            # Step 1 (or plain detection in no-DC mode) + symmetry groups.
            # The symmetry-maximising assignment is speculative: it only
            # replaces the raw outputs when the resulting decomposition
            # step is at least as good (on irregular logic the committed
            # don't cares can cost more than the symmetry buys).
            outputs_sym = None
            groups_sym = None
            with profile_phase("symmetry_groups"):
                groups = self._common_groups(bdd, outputs, support)
            if self.use_symmetry_step:
                with profile_phase("dc_step1_symmetry"):
                    outputs_sym, groups_sym = assign_step1_symmetry(
                        bdd, outputs, support)
                if all(len(g) <= 1 for g in groups_sym):
                    outputs_sym = None  # nothing was symmetrised

            if self.balanced:
                p = min(max(2, len(support) // 2), self.balanced_max_p,
                        len(support) - 1)
            else:
                p = min(self.n_lut, len(support) - 1)
            step = None
            if p >= 2:
                step = self._find_step(bdd, outputs, support, p, groups)
                if outputs_sym is not None:
                    step_sym = self._find_step(bdd, outputs_sym, support,
                                               p, groups_sym)
                    # Adopt the symmetrised outputs only when the step is
                    # strictly better AND its bound set actually swallows
                    # a whole symmetry group — the paper's precondition
                    # for the assignment to survive the later steps.
                    if step_sym is not None and (
                            step is None
                            or step_sym.gain > step.gain):
                        bound_set = set(step_sym.bound)
                        aligned = any(
                            len(g) >= 2 and set(g) <= bound_set
                            for g in groups_sym)
                        if aligned or step is None:
                            step = step_sym
                            outputs = outputs_sym
            if step is None and self.balanced:
                p2 = min(self.n_lut, len(support) - 1)
                if p2 >= 2 and p2 != p:
                    step = self._find_step(bdd, outputs, support, p2,
                                           groups)
            if step is None:
                # When the ranking produced no candidate at all, removing
                # a single variable is unlikely to create one — give the
                # Shannon children a two-level search cooldown.
                cooldown = 2 if self._last_rank_empty else 0
                signals.update(self._shannon_step(
                    bdd, pending, outputs, net, signal_of, depth,
                    cooldown=cooldown))
                return signals

            self.stats.decomposition_steps += 1
            self.stats.joint_lower_bounds.append(step.joint_min_r)
            used = sorted({i for k in step.included
                           for i in step.encodings[k].alpha_indices})
            sum_r = sum(step.encodings[k].r for k in step.included)
            self.stats.alphas_created += len(used)
            self.stats.alphas_shared += sum_r - len(used)
            self.stats.steps.append(StepRecord(
                depth=depth, bound=step.bound,
                num_outputs=len(pending), included=len(step.included),
                alphas_used=len(used), sum_r=sum_r,
                joint_min_r=step.joint_min_r))

            alpha_vars = self._realise_alphas(bdd, step, used, net,
                                              signal_of, depth)

            next_pending: List[Tuple[str, ISF]] = []
            for idx, (name, original) in enumerate(pending):
                if idx in step.included:
                    with profile_phase("encoding"):
                        g_isf = build_composition_for_output(
                            bdd, step.encodings[idx], output_index=0,
                            alpha_vars=alpha_vars)
                    next_pending.append((name, g_isf))
                else:
                    next_pending.append((name, original))
            pending = next_pending
            depth += 1
        return signals

    def _realise_alphas(self, bdd: BDD, step: _Step, used: Sequence[int],
                        net: LutNetwork, signal_of: Dict[int, str],
                        depth: int) -> Dict[int, int]:
        """LUTs (or a recursive bundle) for the used alphas; returns the
        alpha-index -> fresh-BDD-variable map."""
        bound_signals = [signal_of[v] for v in step.bound]
        if len(step.bound) <= self.n_lut:
            alpha_signals = {
                i: net.add_lut(bound_signals, list(step.pool[i].values),
                               name_hint="a")
                for i in used}
        else:
            alpha_named = []
            for i in used:
                alpha_bdd = bdd.from_truth_table(
                    list(step.pool[i].values), list(step.bound))
                alpha_named.append(
                    (f"_a{depth}_{self.stats.decomposition_steps}_{i}",
                     ISF.complete(alpha_bdd)))
            sub_signals = self._decompose(bdd, alpha_named, net,
                                          signal_of, depth + 1)
            alpha_signals = {i: sub_signals[name]
                             for (name, _), i in zip(alpha_named, used)}
        alpha_vars: Dict[int, int] = {}
        for i in used:
            var = bdd.add_var(f"_alpha{len(signal_of)}_{depth}_{i}")
            alpha_vars[i] = var
            signal_of[var] = alpha_signals[i]
        return alpha_vars

    # ------------------------------------------------------------------

    def _components(self, bdd: BDD,
                    pending: List[Tuple[str, ISF]]
                    ) -> List[List[Tuple[str, ISF]]]:
        """Group outputs into support-connected components."""
        supports = [isf.support(bdd) for _, isf in pending]
        parent = list(range(len(pending)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        var_owner: Dict[int, int] = {}
        for i, support in enumerate(supports):
            for var in support:
                if var in var_owner:
                    ra, rb = find(var_owner[var]), find(i)
                    if ra != rb:
                        parent[rb] = ra
                else:
                    var_owner[var] = i
        groups: Dict[int, List[Tuple[str, ISF]]] = {}
        for i, item in enumerate(pending):
            groups.setdefault(find(i), []).append(item)
        return list(groups.values())

    def _common_groups(self, bdd: BDD, outputs: Sequence[ISF],
                       support: Sequence[int],
                       max_checks: int = 1500) -> List[List[int]]:
        """Strong symmetry groups common to all outputs (no assignment).

        Budgeted: each pair check costs one cofactor comparison per
        output, so wide bundles stop early (remaining variables become
        singleton groups — a heuristic degradation only).  Runs in the
        word-parallel kernel domain when the support fits (identical
        decisions either way — only the predicate evaluation changes).
        """
        ops, handles = symmetry_domain(bdd, outputs, "symmetry_groups")
        start = time.perf_counter()
        merged: List[List[int]] = []
        checks = 0
        for var in support:
            placed = False
            if checks < max_checks:
                for group in merged:
                    rep = group[0]
                    checks += 1
                    if checks >= max_checks:
                        break
                    if all(ops.strongly_symmetric(f, rep, var)
                           for f in handles):
                        group.append(var)
                        placed = True
                        break
            if not placed:
                merged.append([var])
        if ops.domain == "kernel":
            KERNEL_STATS.record_hit("symmetry_groups",
                                    time.perf_counter() - start)
        return merged

    def _find_step(self, bdd: BDD, outputs: List[ISF],
                   support: Sequence[int], p: int,
                   groups: Sequence[Sequence[int]]) -> Optional[_Step]:
        """Evaluate ranked bound-set candidates with the full don't-care
        pipeline; return the step with the largest actual support
        reduction (None when nothing shrinks any output).

        The first candidate that yields a step is adopted; after it, a
        candidate is evaluated only if its gain bound
        (:func:`_gain_bound`) beats the best gain so far, and the search
        stops at the first candidate whose ranking reduction does not.
        A later candidate must gain strictly more to be adopted, so the
        step is the one evaluating every candidate would return.  The
        chosen bound is then refined on the true outputs.
        """
        # Wide bundles get a narrower (cheaper) search.
        weight = len(support) * max(1, len(outputs))
        max_candidates = self.max_candidates
        try_candidates = self.try_candidates
        if weight > 400:
            max_candidates = min(max_candidates, 12)
            try_candidates = min(try_candidates, 3)
        if weight > 1200:
            max_candidates = min(max_candidates, 8)
            try_candidates = min(try_candidates, 2)
        # Rank AND choose candidates on the 0-completed view in BOTH
        # modes so the search trajectories of mulopII and mulop-dc stay
        # aligned; the don't-care machinery then refines the chosen
        # bound.  With the onset-seeded class covers, the DC evaluation
        # of the same bound is never worse than the completed one, so
        # alignment makes mulop-dc dominate step-wise.
        ranking_view = [ISF.complete(o.lo) if not o.is_complete() else o
                        for o in outputs]
        # Convert-cache policy for the score memo: clear wholesale on
        # entry-count or byte overflow, count the eviction.  Entries
        # are ((outputs, p), candidate) -> score tuples, plus one
        # ((outputs, p), "greedy", support) -> greedy pick per ranking;
        # the estimate charges the key tuples, which dominate.
        if (len(self._score_memo) > _SCORE_MEMO_LIMIT
                or self._score_memo_bytes > _SCORE_MEMO_BYTES):
            self._score_memo.clear()
            self._score_memo_bytes = 0
            self.stats.score_memo_evictions += 1
        memo_key = (tuple((o.lo, o.hi) for o in ranking_view), p)
        before = len(self._score_memo)
        with profile_phase("rank_bound_sets"):
            # Built even when the memo answers every score: the
            # candidates evaluated below read their classes off it.
            cache = PartitionCache.for_call(bdd, ranking_view,
                                            "reduction_score",
                                            self._cofactors)
            ranked = rank_bound_sets(bdd, ranking_view, support, p,
                                     groups, max_candidates,
                                     score_memo=self._score_memo,
                                     memo_key=memo_key,
                                     memo_stats=self.stats, cache=cache,
                                     store=self._cofactors)
        added = len(self._score_memo) - before
        if added > 0:
            self._score_memo_bytes += added * (
                160 + 32 * len(ranking_view) + 16 * p)
        self._last_rank_empty = not ranked
        best: Optional[_Step] = None
        best_gain = 0
        for bound, score in ranked[:try_candidates]:
            # Adoption is strict, so once a step exists a candidate whose
            # gain bound cannot beat it is skipped, and the first whose
            # ranking reduction cannot ends the search: the ranking is
            # sorted on that reduction.
            if best is not None \
                    and _gain_bound(cache, bound, score) <= best_gain:
                if -score[0] <= best_gain:
                    break
                continue
            step = self._evaluate_candidate(bdd, ranking_view, bound, cache)
            if step is not None and (best is None
                                     or step.gain > best_gain):
                best = step
                best_gain = step.gain
        if best is None:
            return None
        if any(not o.is_complete() for o in outputs):
            # Refine the chosen bound with the true (incompletely
            # specified) outputs: per-output r can only shrink thanks to
            # the onset-seeded covers, so the refinement is adopted
            # whenever it exists.
            refined = self._evaluate_candidate(bdd, outputs, best.bound)
            if refined is not None:
                return refined
        return best

    def _evaluate_candidate(self, bdd: BDD, outputs: Sequence[ISF],
                            bound: Tuple[int, ...],
                            cache: Optional[PartitionCache] = None
                            ) -> Optional[_Step]:
        """Full pipeline (DC steps 2/3 + common alphas) for one bound.

        Only the classes are computed, never a narrowed output.  On the
        completely specified ranking view, whose ``cache`` the ranking
        scored with, steps 2/3 narrow nothing and the classes are read
        off the run's cofactor states.  Otherwise steps 2/3 run
        through :func:`dc_step_classes`; the step-ablation flags keep
        the narrowing reference path.
        """
        classes = None
        if cache is not None:
            classes = partition_classes(bdd, cache, bound)
        if classes is not None:
            joint, per_output = classes
        elif self.use_sharing_step and self.use_single_step:
            joint, per_output = dc_step_classes(bdd, outputs, bound)
        else:
            work = list(outputs)
            joint = None
            if self.use_sharing_step:
                work, joint = assign_step2_sharing(bdd, work, bound)
            if self.use_single_step:
                work, per_output = assign_step3_single(bdd, work, bound)
            else:
                per_output = [classes_for(bdd, [isf], bound)
                              for isf in work]
            if joint is None:
                joint = classes_for(bdd, work, bound)
        joint_min_r = joint.min_r
        with profile_phase("encoding"):
            pool, encodings = select_common_alphas(bdd, per_output)
        bound_set = set(bound)
        included: Set[int] = set()
        gain = 0
        for i, (isf, enc) in enumerate(zip(outputs, encodings)):
            inter = len(isf.support(bdd) & bound_set)
            if inter and enc.r < inter:
                included.add(i)
                gain += inter - enc.r
        if not included:
            return None
        # Charge the (shared) alpha cost against the gain so a step
        # helping one output with one brand-new alpha does not beat a
        # step helping many outputs with shared alphas.
        used = {i for k in included for i in encodings[k].alpha_indices}
        gain -= len(used) // 2
        return _Step(tuple(bound), pool, encodings, included,
                     joint_min_r, gain)

    # ------------------------------------------------------------------

    def _mux_map(self, bdd: BDD, f: int, net: LutNetwork,
                 signal_of: Dict[int, str]) -> str:
        """Fast fallback mapping after the time budget: walk the BDD,
        emit 5-feasible sub-functions as leaf LUTs and MUXes above
        (memoised per node, so sharing follows the BDD structure)."""
        if f == BDD.FALSE:
            return CONST0
        if f == BDD.TRUE:
            return CONST1
        cached = self._mux_memo.get(f)
        if cached is not None:
            return cached
        support = sorted(bdd.support(f))
        if len(support) <= self.n_lut:
            table = bdd.to_truth_table(f, support)
            signal = net.add_lut([signal_of[v] for v in support], table)
        else:
            var = bdd.var_of(f)
            lo = self._mux_map(bdd, bdd.low(f), net, signal_of)
            hi = self._mux_map(bdd, bdd.high(f), net, signal_of)
            signal = self._mux(net, signal_of[var], hi, lo)
        self._mux_memo[f] = signal
        return signal

    def _mux(self, net: LutNetwork, sel: str, hi: str, lo: str) -> str:
        """A 2:1 MUX: one 3-input LUT, or three 2-input LUTs for n_lut=2."""
        if self.n_lut >= 3:
            # Inputs (sel, hi, lo): sel ? hi : lo.
            table = [0, 1, 0, 1, 0, 0, 1, 1]
            return net.add_lut([sel, hi, lo], table, name_hint="mux")
        t1 = net.add_lut([sel, hi], [0, 0, 0, 1], name_hint="and")
        t2 = net.add_lut([sel, lo], [0, 1, 0, 0], name_hint="andn")
        return net.add_lut([t1, t2], [0, 1, 1, 1], name_hint="or")

    def _shannon_step(self, bdd: BDD, pending: List[Tuple[str, ISF]],
                      outputs: List[ISF], net: LutNetwork,
                      signal_of: Dict[int, str],
                      depth: int, cooldown: int = 0) -> Dict[str, str]:
        """Fallback: cofactor every output w.r.t. the most shared variable
        and recombine with MUXes.  Always support-reducing."""
        self.stats.shannon_steps += 1
        # Only the split/cofactor work is charged to the phase — the
        # recursive child decompositions account for themselves.
        with profile_phase("shannon_split"):
            counts: Dict[int, int] = {}
            for isf in outputs:
                for var in isf.support(bdd):
                    counts[var] = counts.get(var, 0) + 1
            split = max(sorted(counts), key=lambda v: counts[v])

            lo_named: List[Tuple[str, ISF]] = []
            hi_named: List[Tuple[str, ISF]] = []
            passthrough: List[Tuple[str, ISF]] = []
            for (name, _), isf in zip(pending, outputs):
                if split in isf.support(bdd):
                    lo_named.append((name, isf.restrict(bdd, split, 0)))
                    hi_named.append((name, isf.restrict(bdd, split, 1)))
                else:
                    passthrough.append((name, isf))

        signals: Dict[str, str] = {}
        lo_signals = self._decompose(
            bdd, lo_named + passthrough, net, signal_of, depth + 1,
            search_cooldown=cooldown)
        hi_signals = self._decompose(bdd, hi_named, net, signal_of,
                                     depth + 1, search_cooldown=cooldown)
        for name, _ in passthrough:
            signals[name] = lo_signals[name]
        for name, _ in lo_named:
            signals[name] = self._mux(net, signal_of[split],
                                      hi_signals[name], lo_signals[name])
        return signals


def decompose(func: MultiFunction, n_lut: int = 5,
              use_dontcares: bool = True,
              **engine_kwargs) -> LutNetwork:
    """One-call decomposition of a :class:`MultiFunction` to LUTs.

    ``use_dontcares=False`` gives the ``mulopII`` baseline; the default
    is the paper's ``mulop-dc``.
    """
    engine = DecompositionEngine(n_lut=n_lut, use_dontcares=use_dontcares,
                                 **engine_kwargs)
    return engine.run(func)
