#!/usr/bin/env python3
"""Micro-benchmarks for the word-parallel kernel hot paths.

Times the three decomposition hot paths — vertex-cofactor extraction +
clique cover (``classes_for``), bound-set scoring
(``reduction_score``) and symmetry-based assignment
(``assign_for_symmetry``) — twice per case: once with the kernel
disabled (pure-BDD reference) and once enabled, on identical inputs.
The bound-set search (``greedy_bound_set``, ``rank_bound_sets``) is
timed twice over: on the case's incompletely specified outputs, and
(``*_complete`` rows) on completed outputs, the view the engine ranks.
The kernel is verified elsewhere (tests/kernel/) to be bit-identical;
this script only measures.

Each side of a case is timed by the same rule: the best of
``REPEATS`` calls, unless either side's best is under
``SMALL_OP_S`` — then both sides are the median of ``SMALL_CALLS``
calls taken alternately, since the best of a few sub-millisecond calls
hangs on one scheduler slice.  A case the speedup gate does not check
(see :func:`gated`) whose first call on either side takes at least
``SINGLE_CALL_S`` is timed by that one call per side instead
(estimator ``single``): the 14-variable ``rank_bound_sets`` BDD
reference takes seconds per call and is measured, not gated.

Writes a schema-versioned JSON report (default: repo-root
``BENCH_hotpaths.json``).  Raw seconds are machine-dependent, so each
report also carries a calibration constant (time for a fixed
pure-Python workload) and per-case times normalised by it, making
reports from different machines roughly comparable.

The report also carries a ``dsd`` section: one DSD-heavy end-to-end
engine case (a parity shell around a random core, plus a Table 1
circuit) run with the tier-0 pre-pass off and on, recording wall time,
the bound-set scoring time the search actually spent (the
``reduction_score``/``classes_for``/``kernel_refine`` kernel ops the
``rank_bound_sets``/``greedy_bound_set`` rows above measure in
isolation) and the pre-pass counters.

Usage:

    PYTHONPATH=src python benchmarks/bench_hotpaths.py
    PYTHONPATH=src python benchmarks/bench_hotpaths.py \
        --seeds 1 2 --check-speedup 1.0 --check-nvars 10 16 \
        --check-dsd --check-dist

``--check-speedup X`` exits non-zero if any case at a width listed in
``--check-nvars`` ran slower than ``X`` times the BDD reference;
``--check-dsd`` exits non-zero if the DSD-on run was slower than the
DSD-off run (1.25x grace) or emitted no split counters;
``--check-dist`` exits non-zero if the 2-node distributed run is
less than 1.8x faster than a ``--jobs``-matched single host or
diverges from it — together the CI perf-smoke gate.

The ``dist`` section spawns two real ``repro dist serve-node``
subprocesses and runs a cache-cold wall-clock-bound manifest through
:class:`repro.dist.coordinator.DistCoordinator`, then the same manifest
through a single-host :class:`~repro.runtime.scheduler.BatchScheduler`
with the same per-node worker count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bdd.manager import BDD  # noqa: E402
from repro.boolfunc.spec import ISF  # noqa: E402
from repro.decomp.bound_set import (  # noqa: E402
    greedy_bound_set,
    rank_bound_sets,
    reduction_score,
)
from repro.decomp.compat import classes_for  # noqa: E402
from repro.kernel import reset_kernel_stats  # noqa: E402
from repro.symmetry.groups import assign_for_symmetry  # noqa: E402

SCHEMA_VERSION = 1
#: Widths up to the kernel cap (:data:`repro.kernel.MAX_VARS`); past it
#: both sides would time the same BDD path.
NVARS = (10, 14, 16)
#: Widths where the bound-set search ops run both ways; at 16 variables
#: a pure-BDD greedy search is the point of the kernel but too slow for
#: a smoke benchmark.
SEARCH_NVARS = (10, 14)
DC_DENSITY = 0.3
#: The completed-output search rows: outputs and bound-set size.
COMPLETE_OUTPUTS = 4
COMPLETE_P = 5
REPEATS = 3
#: Ops whose best call is faster than this on either side are timed as
#: the median of ``SMALL_CALLS`` calls on both sides.
SMALL_OP_S = 1e-3
SMALL_CALLS = 101
#: Ungated ops whose first call on either side takes this long are
#: timed by that one call per side.
SINGLE_CALL_S = 1.0


def calibrate() -> float:
    """Fixed pure-Python workload; its runtime is the machine constant."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def random_isf(bdd, rng, variables):
    lo_bits, hi_bits = [], []
    for _ in range(1 << len(variables)):
        if rng.random() < DC_DENSITY:
            lo_bits.append(0)
            hi_bits.append(1)
        else:
            bit = rng.randint(0, 1)
            lo_bits.append(bit)
            hi_bits.append(bit)
    return ISF.create(bdd,
                      bdd.from_truth_table(lo_bits, variables),
                      bdd.from_truth_table(hi_bits, variables))


def make_case(seed: int, nvars: int):
    rng = random.Random(seed * 1000 + nvars)
    bdd = BDD(nvars)
    variables = list(range(nvars))
    outputs = [random_isf(bdd, rng, variables) for _ in range(2)]
    bound = tuple(rng.sample(variables, 4))
    return bdd, outputs, variables, bound


def make_complete_case(seed: int, nvars: int):
    """``COMPLETE_OUTPUTS`` random outputs completed to their onsets —
    the ranking view :meth:`DecompositionEngine._find_step` builds."""
    rng = random.Random(seed * 1000 + nvars + 500)
    bdd = BDD(nvars)
    variables = list(range(nvars))
    outputs = [ISF.complete(random_isf(bdd, rng, variables).lo)
               for _ in range(COMPLETE_OUTPUTS)]
    return bdd, outputs, variables


def _calls(fn, n: int):
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def gated(op: str, nvars: int, check_nvars) -> bool:
    """Does ``--check-speedup`` check this case?  Below 16 variables
    only ``symmetry_assign`` is gated: every width runs it on the
    kernel, and at 10 variables the masks must still beat the BDD
    predicates — while the search ops at small widths legitimately
    hover around parity and are measured, not gated."""
    return nvars in check_nvars and (nvars >= 16
                                     or op == "symmetry_assign")


def time_sides(fn, is_gated: bool):
    """``(bdd_s, kernel_s, estimator, calls)`` of ``fn`` with the kernel
    off and on, both sides by the same rule (see the module doc)."""
    sides = ("off", "on")
    samples = {}
    single = False
    for side in sides:
        os.environ["REPRO_KERNEL"] = side
        reset_kernel_stats()
        samples[side] = _calls(fn, 1)
        single = single or (not is_gated
                            and samples[side][0] >= SINGLE_CALL_S)
        if not single:
            samples[side] += _calls(fn, REPEATS - 1)
    if single:
        return samples["off"][0], samples["on"][0], "single", 1
    if min(min(times) for times in samples.values()) >= SMALL_OP_S:
        return (min(samples["off"]), min(samples["on"]), "best",
                REPEATS)
    # Alternate the sides call by call: a sub-millisecond op's time
    # drifts with the state earlier calls leave behind, and both sides
    # must sample the same drift.
    samples = {side: [] for side in sides}
    for _ in range(SMALL_CALLS):
        for side in sides:
            os.environ["REPRO_KERNEL"] = side
            samples[side].extend(_calls(fn, 1))
    return (statistics.median(samples["off"]),
            statistics.median(samples["on"]), "median", SMALL_CALLS)


def run_case(seed: int, nvars: int, check_nvars):
    bdd, outputs, variables, bound = make_case(seed, nvars)
    ops = {
        "classes_for": lambda: classes_for(bdd, outputs, bound),
        "reduction_score": lambda: reduction_score(bdd, outputs, bound),
        "symmetry_assign": lambda: assign_for_symmetry(
            bdd, outputs[0], variables),
    }
    if nvars in SEARCH_NVARS:
        ops["greedy_bound_set"] = lambda: greedy_bound_set(
            bdd, outputs, variables, 4)
        ops["rank_bound_sets"] = lambda: rank_bound_sets(
            bdd, outputs, variables, 4)
        cbdd, complete, cvars = make_complete_case(seed, nvars)
        ops["greedy_bound_set_complete"] = lambda: greedy_bound_set(
            cbdd, complete, cvars, COMPLETE_P)
        ops["rank_bound_sets_complete"] = lambda: rank_bound_sets(
            cbdd, complete, cvars, COMPLETE_P)
    rows = []
    for op, fn in ops.items():
        bdd_s, kernel_s, estimator, calls = time_sides(
            fn, gated(op, nvars, check_nvars))
        rows.append({
            "op": op,
            "nvars": nvars,
            "seed": seed,
            "estimator": estimator,
            "calls": calls,
            "bdd_s": bdd_s,
            "kernel_s": kernel_s,
            "speedup": bdd_s / kernel_s if kernel_s > 0 else math.inf,
        })
    return rows


#: Kernel ops that make up the bound-set scoring cost inside an engine
#: run (what the isolated rank/greedy rows above measure).
SCORING_OPS = ("classes_for", "reduction_score", "kernel_refine")


def dsd_heavy_func():
    """A 14-input single-output function with a 6-literal XOR shell
    around a dense random 8-variable core — the shape the tier-0
    pre-pass exists for."""
    rng = random.Random(97)
    bdd = BDD(14)
    variables = list(range(14))
    core_table = [rng.randint(0, 1) for _ in range(1 << 8)]
    core = bdd.from_truth_table(core_table, variables[6:])
    f = core
    for v in variables[:6]:
        f = bdd.apply_xor(f, bdd.var(v))
    from repro.boolfunc.spec import MultiFunction
    return MultiFunction(bdd, variables, [ISF.complete(f)])


def run_dsd_case(name, func, gate_wall=False):
    from repro.decomp.recursive import DecompositionEngine

    def one(use_dsd):
        engine = DecompositionEngine(use_dsd=use_dsd)
        # Collect what earlier cases left before the clock starts, so a
        # full collection never lands inside a timed run.
        gc.collect()
        t0 = time.perf_counter()
        net = engine.run(func)
        wall = time.perf_counter() - t0
        ops = (engine.stats.kernel_metrics or {}).get("ops", {})
        scoring = sum(ops.get(op, {}).get("time_s", 0.0)
                      for op in SCORING_OPS)
        return {
            "wall_s": wall,
            "scoring_s": scoring,
            "lut_count": net.lut_count,
            "search_steps": engine.stats.decomposition_steps,
            "dsd": dict(engine.stats.dsd),
        }

    off = one(False)
    on = one(True)
    return {
        "case": name,
        # Wall-gated cases are the DSD-*heavy* ones where the pre-pass
        # must pay for itself outright; on the realistic circuits the
        # on-path may legitimately spend longer searching a different
        # (never worse) trajectory, so only LUTs/counters are gated.
        "gate_wall": gate_wall,
        "off": off,
        "on": on,
        "wall_speedup": off["wall_s"] / on["wall_s"]
        if on["wall_s"] > 0 else math.inf,
    }


def run_dsd_section():
    from repro.bench.registry import benchmark as build_circuit
    rows = [run_dsd_case("xor6shell_rand8", dsd_heavy_func(),
                         gate_wall=True),
            run_dsd_case("alu2", build_circuit("alu2"))]
    for row in rows:
        counters = ", ".join(f"{k}={v}" for k, v in
                             sorted(row["on"]["dsd"].items()))
        print(f"dsd  {row['case']:<16s} "
              f"off {row['off']['wall_s']*1e3:8.2f} ms "
              f"(score {row['off']['scoring_s']*1e3:7.2f} ms, "
              f"{row['off']['lut_count']} LUTs)   "
              f"on {row['on']['wall_s']*1e3:8.2f} ms "
              f"(score {row['on']['scoring_s']*1e3:7.2f} ms, "
              f"{row['on']['lut_count']} LUTs)   "
              f"speedup {row['wall_speedup']:5.2f}x   [{counters}]")
    return rows


# ---------------------------------------------------------------------
# Distributed batch: 2 local nodes vs a --jobs-matched single host
# ---------------------------------------------------------------------

#: The dist case is wall-clock-bound by construction (``!sleep`` jobs):
#: on a 1-CPU runner the speedup must come from *concurrency* across
#: node worker slots, which is exactly what the distributed tier adds.
DIST_JOBS = 8
DIST_SLEEP_S = 0.8
DIST_WORKERS_PER_NODE = 2
DIST_NODES = 2
#: ``synth:dist:8:1:<seed>`` — seeds 0..7 give 8 distinct canonical
#: keys (6-input synthetics collide after canonicalization; 8-input
#: ones verified distinct), so the cache-cold run has no dedup shortcut.
DIST_SYNTH = "synth:dist:8:1"


def _stable_rows(rows):
    """Zero the volatile timing fields (repro batch --stable-rows)."""
    out = []
    for row in sorted(rows, key=lambda r: r["index"]):
        row = dict(row)
        row["queue_wait_s"] = 0.0
        row["exec_s"] = 0.0
        row["beats"] = 0
        out.append(row)
    return out


def _spawn_node():
    """Start one ``repro dist serve-node`` subprocess; parse its
    readiness line for the ephemeral port."""
    import subprocess
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "dist", "serve-node",
         "--port", "0", "--workers", str(DIST_WORKERS_PER_NODE)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    deadline = time.monotonic() + 30.0
    while True:
        line = proc.stdout.readline()
        if "node serving on" in line:
            addr = line.split("node serving on", 1)[1].split()[0]
            host, _, port = addr.rpartition(":")
            return proc, (host, int(port))
        if not line or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("dist node failed to become ready")


def run_dist_section():
    """Cache-cold sleep-bound manifest: 2 subprocess nodes vs a
    ``--jobs``-matched single-host scheduler, byte-identity checked."""
    import tempfile

    from repro.dist.coordinator import DistCoordinator
    from repro.runtime.cache import ResultCache
    from repro.runtime.jobspec import parse_manifest
    from repro.runtime.scheduler import BatchScheduler

    entries = "\n".join(f"{DIST_SYNTH}:{i} !sleep={DIST_SLEEP_S}"
                        for i in range(DIST_JOBS))

    def make_jobs():
        jobs = parse_manifest(entries)
        for job in jobs:
            job["flow"] = "map"
            job["config"] = {"use_dontcares": True}
        return jobs

    procs = []
    try:
        nodes = []
        for _ in range(DIST_NODES):
            proc, addr = _spawn_node()
            procs.append(proc)
            nodes.append(addr)

        with tempfile.TemporaryDirectory() as cache_dir:
            coordinator = DistCoordinator(nodes,
                                          cache=ResultCache(cache_dir))
            t0 = time.perf_counter()
            dist_rows = coordinator.run(make_jobs())
            dist_s = time.perf_counter() - t0
            dist_stats = coordinator.stats()

        with tempfile.TemporaryDirectory() as cache_dir:
            scheduler = BatchScheduler(workers=DIST_WORKERS_PER_NODE,
                                       cache=ResultCache(cache_dir))
            t0 = time.perf_counter()
            single_rows = [r.as_dict() for r in scheduler.run(make_jobs())]
            single_s = time.perf_counter() - t0
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except Exception:
                proc.kill()

    identical = _stable_rows(dist_rows) == _stable_rows(single_rows)
    ok = all(r["status"] == "ok" for r in dist_rows)
    section = {
        "jobs": DIST_JOBS,
        "sleep_s": DIST_SLEEP_S,
        "nodes": DIST_NODES,
        "workers_per_node": DIST_WORKERS_PER_NODE,
        "single_s": single_s,
        "dist_s": dist_s,
        "speedup": single_s / dist_s if dist_s > 0 else math.inf,
        "identical": identical,
        "all_ok": ok,
        "steals": dist_stats["steals"],
        "node_losses": dist_stats["node_losses"],
        "dup_results": dist_stats["dup_results"],
    }
    print(f"dist {DIST_NODES} nodes x {DIST_WORKERS_PER_NODE} workers, "
          f"{DIST_JOBS} jobs sleep {DIST_SLEEP_S}s: "
          f"single {single_s:.2f} s   dist {dist_s:.2f} s   "
          f"speedup {section['speedup']:.2f}x   "
          f"identical={identical} steals={section['steals']}")
    return section


def geomean(values):
    values = [v for v in values if v > 0 and math.isfinite(v)]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="benchmark case seeds (default: 1 2)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "BENCH_hotpaths.json",
                        help="output JSON path (default: repo root)")
    parser.add_argument("--check-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if any gated case is slower "
                             "than X times the BDD reference")
    parser.add_argument("--check-nvars", type=int, nargs="+", default=[16],
                        help="widths the --check-speedup gate applies to "
                             "(default: 16)")
    parser.add_argument("--check-dsd", action="store_true",
                        help="exit non-zero if the DSD-on engine run is "
                             "slower than DSD-off (1.25x grace) or "
                             "emitted no split counters")
    parser.add_argument("--check-dist", type=float, nargs="?",
                        const=1.8, default=None, metavar="X",
                        help="exit non-zero if the 2-node distributed "
                             "run is not at least X times faster than "
                             "the --jobs-matched single host (default "
                             "1.8) or its merged rows diverge")
    args = parser.parse_args(argv)

    prior_kernel = os.environ.get("REPRO_KERNEL")
    calibration_s = calibrate()
    cases = []
    for seed in args.seeds:
        for nvars in NVARS:
            rows = run_case(seed, nvars, args.check_nvars)
            cases.extend(rows)
            for row in rows:
                print(f"seed={seed} nvars={nvars:2d} {row['op']:<25s} "
                      f"bdd {row['bdd_s']*1e3:8.2f} ms   "
                      f"kernel {row['kernel_s']*1e3:8.2f} ms   "
                      f"speedup {row['speedup']:6.2f}x")
    dsd_rows = run_dsd_section()
    dist_section = run_dist_section()
    if prior_kernel is None:
        os.environ.pop("REPRO_KERNEL", None)
    else:
        os.environ["REPRO_KERNEL"] = prior_kernel

    for row in cases:
        row["bdd_norm"] = row["bdd_s"] / calibration_s
        row["kernel_norm"] = row["kernel_s"] / calibration_s

    by_nvars = {
        str(n): geomean([r["speedup"] for r in cases if r["nvars"] == n])
        for n in NVARS
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "calibration_s": calibration_s,
        "seeds": args.seeds,
        "dc_density": DC_DENSITY,
        "repeats": REPEATS,
        "small_op_s": SMALL_OP_S,
        "small_calls": SMALL_CALLS,
        "single_call_s": SINGLE_CALL_S,
        "complete_outputs": COMPLETE_OUTPUTS,
        "complete_p": COMPLETE_P,
        "cases": cases,
        "dsd": dsd_rows,
        "dist": dist_section,
        "summary": {
            "geomean_speedup": geomean([r["speedup"] for r in cases]),
            "geomean_speedup_by_nvars": by_nvars,
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\ncalibration {calibration_s*1e3:.2f} ms; geomean speedup "
          f"{doc['summary']['geomean_speedup']:.2f}x -> {args.out}")

    if args.check_speedup is not None:
        checked = [r for r in cases
                   if gated(r["op"], r["nvars"], args.check_nvars)]
        slow = [r for r in checked if r["speedup"] < args.check_speedup]
        if slow:
            for r in slow:
                print(f"GATE FAIL: seed={r['seed']} nvars={r['nvars']} "
                      f"{r['op']} speedup {r['speedup']:.2f}x < "
                      f"{args.check_speedup:.2f}x", file=sys.stderr)
            return 1
        print(f"gate OK: {len(checked)} cases >= "
              f"{args.check_speedup:.2f}x at nvars {args.check_nvars}")
    if args.check_dsd:
        failed = False
        for row in dsd_rows:
            if row["gate_wall"] \
                    and row["on"]["wall_s"] > 1.25 * row["off"]["wall_s"]:
                print(f"GATE FAIL: dsd case {row['case']} on-path "
                      f"{row['on']['wall_s']*1e3:.1f} ms > 1.25x off "
                      f"{row['off']['wall_s']*1e3:.1f} ms",
                      file=sys.stderr)
                failed = True
            if not row["on"]["dsd"]:
                print(f"GATE FAIL: dsd case {row['case']} emitted no "
                      f"pre-pass counters", file=sys.stderr)
                failed = True
            if row["on"]["lut_count"] > row["off"]["lut_count"]:
                print(f"GATE FAIL: dsd case {row['case']} LUTs "
                      f"{row['on']['lut_count']} > DSD-off "
                      f"{row['off']['lut_count']}", file=sys.stderr)
                failed = True
        if failed:
            return 1
        print(f"dsd gate OK: {len(dsd_rows)} cases — heavy case on-path "
              f"no slower, counters emitted, LUTs never worse")
    if args.check_dist is not None:
        failed = False
        if dist_section["speedup"] < args.check_dist:
            print(f"GATE FAIL: dist speedup "
                  f"{dist_section['speedup']:.2f}x < "
                  f"{args.check_dist:.2f}x", file=sys.stderr)
            failed = True
        if not dist_section["identical"]:
            print("GATE FAIL: dist rows diverge from the single-host "
                  "run", file=sys.stderr)
            failed = True
        if not dist_section["all_ok"]:
            print("GATE FAIL: dist run had non-ok rows", file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f"dist gate OK: {dist_section['speedup']:.2f}x >= "
              f"{args.check_dist:.2f}x on {DIST_NODES} nodes, rows "
              f"byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
