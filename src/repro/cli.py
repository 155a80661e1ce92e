"""Command-line interface.

::

    python -m repro map rd84                  # XC3000 flow on a benchmark
    python -m repro map --no-dc rd84          # the mulopII baseline
    python -m repro map --pla my.pla          # map a PLA file
    python -m repro map rd84 --profile        # phase/BDD-counter summary
    python -m repro map rd84 --metrics-out m.json   # JSON run trace
    python -m repro gates adder8              # two-input-gate synthesis
    python -m repro batch --manifest suite.txt --jobs 4 --out r.jsonl
    python -m repro batch --manifest suite.txt --journal b.jnl --out r.jsonl
    python -m repro batch --resume b.jnl --out r.jsonl   # after a crash
    python -m repro batch rd84 --inject worker.start:crash:1:1  # chaos
    python -m repro cache stats               # persistent result cache
    python -m repro serve --socket /tmp/repro.sock --port 8787  # daemon
    python -m repro list                      # registered benchmarks
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from time import perf_counter
from typing import Optional

from repro.bench.registry import BENCHMARKS, benchmark, benchmark_names
from repro.boolfunc.blif import BlifError, parse_blif
from repro.boolfunc.pla import parse_pla
from repro.boolfunc.spec import MultiFunction
from repro.core.api import map_to_xc3000, synthesize_two_input_gates
from repro.decomp.dsd import dsd_enabled
from repro.obs import (
    SCHEMA_VERSION,
    batch_metrics,
    profile_report,
    run_metrics,
    write_metrics,
)

#: Shown whenever a generator name fails to parse.
_GENERATOR_FORMS = ("adderN with N >= 1 (e.g. adder8), "
                    "pmN with N >= 1 (e.g. pm4)")


def _generator_width(name: str, prefix: str) -> int:
    """Parse the ``N`` of a ``adderN``/``pmN`` generator name; exits with
    a clean message on malformed input (``adderfoo``, ``pm0``, ...)."""
    suffix = name[len(prefix):]
    if not suffix.isdigit() or int(suffix) < 1:
        raise SystemExit(
            f"malformed generator name {name!r}: valid forms are "
            f"{_GENERATOR_FORMS}")
    return int(suffix)


def _load_function(args) -> MultiFunction:
    if args.pla:
        try:
            with open(args.pla) as handle:
                return parse_pla(handle.read())
        except OSError as exc:
            raise SystemExit(f"cannot read {args.pla}: {exc.strerror}")
    if args.blif:
        try:
            with open(args.blif) as handle:
                return parse_blif(handle.read())
        except OSError as exc:
            raise SystemExit(f"cannot read {args.blif}: {exc.strerror}")
        except BlifError as exc:
            raise SystemExit(f"{args.blif}: {exc}")
    name = args.name
    if name is None:
        raise SystemExit("give a benchmark name, --pla or --blif")
    if name.startswith("adder"):
        from repro.arith.adders import adder_function
        return adder_function(_generator_width(name, "adder"))
    if name.startswith("pm"):
        from repro.arith.multipliers import partial_multiplier_function
        return partial_multiplier_function(_generator_width(name, "pm"))
    try:
        return benchmark(name)
    except KeyError:
        raise SystemExit(
            f"unknown benchmark {name!r}: run `repro list` for the "
            f"registered circuits, or use a generator "
            f"({_GENERATOR_FORMS})")


def _source_label(args) -> str:
    """What was mapped, for the metrics trace."""
    return args.pla or args.blif or args.name or "?"


def _mapping_result_dict(result) -> dict:
    return {"lut_count": result.lut_count,
            "clb_count": result.clb_count,
            "depth": result.depth}


def _emit_observability(args, *, command: str, stats, wall_time_s: float,
                        result: dict, extra: Optional[dict] = None) -> None:
    """Shared ``--profile`` / ``--metrics-out`` handling."""
    if getattr(args, "profile", False):
        print(profile_report(stats, stats.bdd_metrics))
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        doc = run_metrics(command=command, source=_source_label(args),
                          stats=stats, bdd_metrics=stats.bdd_metrics,
                          wall_time_s=wall_time_s, result=result,
                          extra=extra)
        try:
            write_metrics(metrics_out, doc)
        except OSError as exc:
            raise SystemExit(f"cannot write {metrics_out}: {exc.strerror}")
        print(f"wrote {metrics_out}")


def _cmd_list(args) -> int:
    print(f"{'name':10s} {'in':>4s} {'out':>4s}  provenance")
    for name in benchmark_names():
        spec = BENCHMARKS[name]
        print(f"{name:10s} {spec.num_inputs:4d} {spec.num_outputs:4d}  "
              f"{spec.provenance}{'  (heavy)' if spec.heavy else ''}")
    print("\nplus generators: adderN (e.g. adder8), pmN (e.g. pm4)")
    return 0


def _open_cache(args):
    """The persistent result cache, or None when not requested."""
    use_cache = getattr(args, "cache", False) or getattr(
        args, "cache_dir", None)
    if getattr(args, "no_cache", False) or not use_cache:
        return None
    from repro.runtime.cache import ResultCache
    return ResultCache(getattr(args, "cache_dir", None) or None)


def _emit_cached_observability(args, *, command: str, record: dict,
                               wall_time_s: float, result: dict) -> None:
    """``--metrics-out`` for a cache hit (no engine ran, so the document
    carries the cache provenance instead of a phase profile)."""
    if getattr(args, "profile", False):
        print("(cache hit: no engine phases to profile)")
    metrics_out = getattr(args, "metrics_out", None)
    if not metrics_out:
        return
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "source": _source_label(args),
           "wall_time_s": round(wall_time_s, 6), "result": result,
           "cache": {"hit": True},
           "engine": record.get("engine")}
    try:
        write_metrics(metrics_out, doc)
    except OSError as exc:
        raise SystemExit(f"cannot write {metrics_out}: {exc.strerror}")
    print(f"wrote {metrics_out}")


def _cmd_map(args) -> int:
    func = _load_function(args)
    cache = _open_cache(args)
    mode = "mulopII" if args.no_dc else "mulop-dc"
    key = None
    start = perf_counter()
    if cache is not None:
        from repro.runtime.cache import cache_key
        key = cache_key(func.canonical_key(), "map",
                        {"use_dontcares": not args.no_dc},
                        dsd=dsd_enabled())
        record = cache.get(key)
        if record is not None:
            wall = perf_counter() - start
            print(f"{mode}: {record['lut_count']} LUTs, "
                  f"{record['clb_count']} CLBs, "
                  f"depth {record['depth']} (cached)")
            _emit_cached_observability(
                args, command="map", record=record, wall_time_s=wall,
                result={"lut_count": record["lut_count"],
                        "clb_count": record["clb_count"],
                        "depth": record["depth"]})
            if args.blif_out:
                with open(args.blif_out, "w") as handle:
                    handle.write(record["blif"])
                print(f"wrote {args.blif_out}")
            return 0
    result = map_to_xc3000(func, use_dontcares=not args.no_dc)
    wall = perf_counter() - start
    if cache is not None:
        cache.put(key, result.to_record())
    print(f"{mode}: {result.summary()}")
    if args.trace:
        print(result.stats.report())
    _emit_observability(
        args, command="map", stats=result.stats, wall_time_s=wall,
        result=_mapping_result_dict(result),
        extra={"n_lut": 5, "use_dontcares": not args.no_dc})
    if args.blif_out:
        with open(args.blif_out, "w") as handle:
            handle.write(result.network.to_blif())
        print(f"wrote {args.blif_out}")
    return 0


def _cmd_gates(args) -> int:
    func = _load_function(args)
    start = perf_counter()
    net = synthesize_two_input_gates(func, use_dontcares=not args.no_dc)
    wall = perf_counter() - start
    print(f"{net.gate_count} two-input gates, depth {net.depth()}, "
          f"{net.inverter_count} inverters")
    _emit_observability(
        args, command="gates", stats=net.decomposition_stats,
        wall_time_s=wall,
        result={"gate_count": net.gate_count, "depth": net.depth(),
                "inverter_count": net.inverter_count},
        extra={"use_dontcares": not args.no_dc})
    return 0


def _print_compare_table(base: dict, dc: dict, delta: int,
                         cached: bool = False) -> None:
    suffix = "  (cached)" if cached else ""
    print(f"{'driver':10s} {'LUTs':>6s} {'CLBs':>6s} {'depth':>6s}")
    print(f"{'mulopII':10s} {base['lut_count']:6d} "
          f"{base['clb_count']:6d} {base['depth']:6d}{suffix}")
    print(f"{'mulop-dc':10s} {dc['lut_count']:6d} "
          f"{dc['clb_count']:6d} {dc['depth']:6d}{suffix}")
    print(f"don't-care exploitation saves {delta} CLB(s)")


def _cmd_compare(args) -> int:
    from repro.verify.equiv import check_extension

    func = _load_function(args)
    cache = _open_cache(args)
    key = None
    start = perf_counter()
    if cache is not None:
        from repro.runtime.cache import cache_key
        key = cache_key(func.canonical_key(), "compare", {},
                        dsd=dsd_enabled())
        record = cache.get(key)
        if record is not None:
            wall = perf_counter() - start
            _print_compare_table(record["mulopII"], record["mulop_dc"],
                                 record["clbs_saved"], cached=True)
            verified = record.get("verified")
            if verified:
                print("formal verification: EQUIVALENT (cached)")
            elif verified is None:
                print("formal verification: skipped when this result "
                      "was computed")
                verified = True
            else:
                print("formal verification: MISMATCH")
            _emit_cached_observability(
                args, command="compare", record=record,
                wall_time_s=wall,
                result={"mulopII": {k: record["mulopII"][k] for k in
                                    ("lut_count", "clb_count", "depth")},
                        "mulop_dc": {k: record["mulop_dc"][k] for k in
                                     ("lut_count", "clb_count", "depth")},
                        "clbs_saved": record["clbs_saved"]})
            return 0 if verified else 1
    func.bdd.reset_counters()
    baseline = map_to_xc3000(func, use_dontcares=False)
    # Counters are reset between the runs so each stats snapshot (and
    # the emitted trace) describes one driver, not the sum of both.
    func.bdd.reset_counters()
    with_dc = map_to_xc3000(func, use_dontcares=True)
    wall = perf_counter() - start
    delta = baseline.clb_count - with_dc.clb_count
    _print_compare_table(_mapping_result_dict(baseline),
                         _mapping_result_dict(with_dc), delta)
    verdict_base = check_extension(func, baseline.network)
    verdict_dc = check_extension(func, with_dc.network)
    verified = bool(verdict_base) and bool(verdict_dc)
    if verified:
        print("formal verification: EQUIVALENT")
    else:
        bad = verdict_base if not verdict_base else verdict_dc
        driver = "mulopII" if not verdict_base else "mulop-dc"
        print(f"formal verification: MISMATCH ({driver}) on output "
              f"{bad.failing_output} at {bad.counterexample}")
    if cache is not None and verified:
        record = {"mulopII": baseline.to_record(),
                  "mulop_dc": with_dc.to_record(),
                  "clbs_saved": delta, "verified": True}
        cache.put(key, record)
    if args.profile:
        print("--- mulopII ---")
        print(profile_report(baseline.stats, baseline.stats.bdd_metrics))
        print("--- mulop-dc ---")
    _emit_observability(
        args, command="compare", stats=with_dc.stats, wall_time_s=wall,
        result={"mulopII": _mapping_result_dict(baseline),
                "mulop_dc": _mapping_result_dict(with_dc),
                "clbs_saved": delta, "verified": verified},
        extra={"n_lut": 5})
    # A verification failure must fail CI batch runs, not just print.
    return 0 if verified else 1


def _cmd_verify(args) -> int:
    from repro.verify.equiv import check_extension
    func = _load_function(args)
    result = map_to_xc3000(func, use_dontcares=not args.no_dc)
    verdict = check_extension(func, result.network)
    mode = "mulopII" if args.no_dc else "mulop-dc"
    print(f"{mode}: {result.summary()}")
    if verdict:
        print("formal verification: EQUIVALENT")
        return 0
    print(f"formal verification: MISMATCH on output "
          f"{verdict.failing_output} at {verdict.counterexample}")
    return 1


def _parse_batch_jobs(args) -> list:
    """Manifest + positional entries -> job dicts with flow/config."""
    from repro.runtime import parse_manifest, parse_manifest_entry

    jobs = []
    if args.manifest:
        try:
            with open(args.manifest) as handle:
                jobs.extend(parse_manifest(handle.read()))
        except OSError as exc:
            raise SystemExit(
                f"cannot read {args.manifest}: {exc.strerror}")
        except ValueError as exc:
            raise SystemExit(f"{args.manifest}: {exc}")
    for name in args.names:
        try:
            jobs.append(parse_manifest_entry(name))
        except ValueError as exc:
            raise SystemExit(str(exc))
    # compare runs both drivers, so its config (and cache key) carries
    # no use_dontcares — the CLI `compare --cache` keys the same way.
    config = {} if args.flow == "compare" else {
        "use_dontcares": not args.no_dc}
    if args.no_verify:
        config["verify"] = False
    for job in jobs:
        job["flow"] = args.flow
        job["config"] = dict(config)
    return jobs


def _resolve_worker_arg(requested) -> tuple:
    """Clamp ``--jobs``/``--workers`` and surface the note, so ``0`` or
    a negative count runs at the auto-detected width with a clean
    message instead of misbehaving."""
    from repro.runtime import resolve_workers
    workers, note = resolve_workers(requested)
    if note:
        print(note)
    return workers, note


def _row_detail(row: dict, flow: str) -> str:
    if row["status"] == "failed" or not isinstance(row.get("result"), dict):
        return row.get("error") or "failed"
    if flow == "compare":
        return f"saves {row['result']['clbs_saved']} CLB(s)"
    return (f"{row['result']['lut_count']} LUTs, "
            f"{row['result']['clb_count']} CLBs")


def _row_notes(row: dict) -> str:
    notes = []
    if row.get("cache_hit"):
        notes.append("cache hit")
    if row.get("degraded"):
        notes.append("degraded")
    if row.get("hung"):
        notes.append("hung")
    if row.get("retries"):
        notes.append(f"{row['retries']} retries")
    return f" ({', '.join(notes)})" if notes else ""


def _stabilize_rows(rows: list) -> None:
    """Zero the volatile timing fields in place (``--stable-rows``), so
    two runs of the same workload — single-host vs distributed, before
    vs after a node loss — compare byte-identically."""
    for row in rows:
        row["queue_wait_s"] = 0.0
        row["exec_s"] = 0.0
        row["beats"] = 0


def _write_batch_outputs(args, rows, totals, wall, cache_stats,
                         extra=None) -> None:
    if getattr(args, "stable_rows", False):
        _stabilize_rows(rows)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                for row in rows:
                    handle.write(json.dumps(row) + "\n")
        except OSError as exc:
            raise SystemExit(f"cannot write {args.out}: {exc.strerror}")
        print(f"wrote {args.out}")
    if args.metrics_out:
        doc = batch_metrics(
            source=args.manifest or ",".join(args.names)
            or getattr(args, "resume", None) or "?",
            job_rows=rows, totals=totals, wall_time_s=wall,
            cache_stats=cache_stats, extra=extra)
        try:
            write_metrics(args.metrics_out, doc)
        except OSError as exc:
            raise SystemExit(
                f"cannot write {args.metrics_out}: {exc.strerror}")
        print(f"wrote {args.metrics_out}")


def _load_resume(args, site: str) -> tuple:
    """Shared ``--resume`` loader for the single-host and distributed
    paths: returns ``(jobs, done_rows, journal)`` with the journal
    reopened for appending under ``site``.

    The only hard errors left are the typed ones: an unreadable file
    and a journal whose manifest/code-version binding does not match
    (replaying half a batch under changed semantics would silently mix
    incomparable rows).
    """
    from repro.runtime import (
        BatchJournal,
        JournalError,
        journal_binding,
        load_journal,
    )

    if args.journal:
        raise SystemExit("--resume appends to the journal it is "
                         "given; do not pass --journal as well")
    try:
        header, done_rows, started, corrupt = load_journal(args.resume)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.resume}: {exc.strerror}")
    except JournalError as exc:
        raise SystemExit(str(exc))
    jobs = [dict(job) for job in header["jobs"]]
    if args.manifest or args.names:
        # A manifest given alongside --resume must describe the same
        # workload the journal recorded — mixing rows from different
        # job lists would be silent garbage.
        if journal_binding(_parse_batch_jobs(args)) != header["binding"]:
            raise SystemExit(
                f"{args.resume}: journal does not match the given "
                f"manifest/entries; resume without them (the journal "
                f"is self-contained) or rerun from scratch")
    in_flight = sorted(i for i in started if i not in done_rows)
    if corrupt:
        print(f"warning: {args.resume}: skipped {corrupt} corrupt "
              f"journal line(s)")
    print(f"resuming {args.resume}: {len(done_rows)} job(s) already "
          f"done, {len(in_flight)} in-flight replayed, "
          f"{len(jobs) - len(done_rows)} to run")
    return jobs, done_rows, BatchJournal.resume(args.resume, site=site)


def _cmd_batch_dist(args) -> int:
    """`repro batch --nodes`: shard the manifest across worker nodes."""
    from repro.dist import DistCoordinator, parse_nodes
    from repro.runtime import BatchJournal, ResultCache, summarize_rows

    try:
        nodes = parse_nodes(args.nodes)
    except ValueError as exc:
        raise SystemExit(str(exc))
    journal = None
    done_rows = {}
    if args.resume:
        jobs, done_rows, journal = _load_resume(args,
                                                site="coord.journal")
    else:
        jobs = _parse_batch_jobs(args)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or None)
    if journal is None and args.journal:
        journal = BatchJournal.create(args.journal, jobs,
                                      site="coord.journal")

    def on_listen(host: str, port: int) -> None:
        print(f"membership: join listener on {host}:{port} "
              f"(late nodes: repro dist serve-node --join "
              f"{host}:{port})", flush=True)

    coordinator = DistCoordinator(
        nodes, cache=cache, timeout=args.timeout, retries=args.retries,
        heartbeat_s=args.heartbeat, hang_grace_s=args.hang_grace,
        journal=journal,
        join_port=None if args.join_port < 0 else args.join_port,
        rpc_tries=args.rpc_tries, rpc_backoff_s=args.rpc_backoff,
        backoff_seed=args.fault_seed or 0, on_listen=on_listen)
    total = len(jobs)
    done = [len(done_rows)]

    def on_row(row: dict) -> None:
        done[0] += 1
        print(f"[{done[0]}/{total}] {row['job_id']}: {row['status']} — "
              f"{_row_detail(row, args.flow)}{_row_notes(row)}")

    start = perf_counter()
    try:
        rows = coordinator.run(jobs, on_row=on_row,
                               presettled=done_rows)
    finally:
        if journal is not None:
            journal.close()
    wall = perf_counter() - start
    totals = summarize_rows(rows)
    dist = coordinator.stats()
    _write_batch_outputs(args, rows, totals, wall,
                         cache.stats() if cache is not None else None,
                         extra={"dist": dist})
    lost = ""
    if dist["node_losses"]:
        lost = (f", {dist['node_losses']} node(s) lost "
                f"({dist['reassigned']} jobs reassigned)")
    if dist["rpc_retries"]:
        lost += f", {dist['rpc_retries']} rpc retries"
    if dist["joins"] or dist["reconnects"]:
        lost += (f", {dist['joins']} join(s), {dist['reconnects']} "
                 f"reconnect(s)")
    if dist["local_fallback_jobs"]:
        lost += (f", {dist['local_fallback_jobs']} finished by local "
                 f"fallback")
    print(f"batch: {totals['jobs']} job(s) in {wall:.1f}s across "
          f"{len(nodes)} node(s) — {totals['ok']} ok, "
          f"{totals['degraded']} degraded, {totals['failed']} failed; "
          f"cache hits {totals['cache_hits']}/{totals['jobs']}, "
          f"{dist['steals']} steals, {dist['dup_results']} duplicate "
          f"result(s){lost}")
    return 1 if totals["failed"] else 0


def _cmd_batch(args) -> int:
    from repro.runtime import (
        BatchJournal,
        BatchScheduler,
        ResultCache,
        summarize_rows,
    )

    if args.nodes:
        return _cmd_batch_dist(args)
    journal = None
    done_rows = {}
    if args.resume:
        jobs, done_rows, journal = _load_resume(args,
                                                site="journal.append")
    else:
        jobs = _parse_batch_jobs(args)

    remaining = [i for i in range(len(jobs)) if i not in done_rows]
    sub_jobs = [jobs[i] for i in remaining]

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or None)
    workers, note = _resolve_worker_arg(args.jobs)
    scheduler = BatchScheduler(workers=workers, timeout=args.timeout,
                               retries=args.retries, cache=cache,
                               heartbeat_s=args.heartbeat,
                               hang_grace_s=args.hang_grace)
    if journal is None and args.journal:
        journal = BatchJournal.create(args.journal, jobs)
    total = len(jobs)
    done = [len(done_rows)]
    fresh_rows = {}

    def on_dispatch(index: int, attempt: int) -> None:
        if journal is not None:
            journal.record_start(remaining[index],
                                 sub_jobs[index]["job_id"], attempt)

    def progress(res) -> None:
        done[0] += 1
        row = res.as_dict(include_blif=args.include_blif)
        row["index"] = remaining[res.index]
        fresh_rows[remaining[res.index]] = row
        if journal is not None:
            journal.record_done(remaining[res.index], row)
        if res.status == "failed":
            detail = res.error or "failed"
        elif res.flow == "compare":
            detail = (f"saves {res.result['clbs_saved']} CLB(s)")
        else:
            detail = (f"{res.result['lut_count']} LUTs, "
                      f"{res.result['clb_count']} CLBs")
        notes = []
        if res.cache_hit:
            notes.append("cache hit")
        if res.degraded:
            notes.append("degraded")
        if res.hung:
            notes.append("hung")
        if res.retries:
            notes.append(f"{res.retries} retries")
        note = f" ({', '.join(notes)})" if notes else ""
        print(f"[{done[0]}/{total}] {res.job_id}: {res.status} — "
              f"{detail}{note}")

    start = perf_counter()
    try:
        scheduler.run(sub_jobs, on_result=progress,
                      on_dispatch=on_dispatch)
    finally:
        if journal is not None:
            journal.close()
    wall = perf_counter() - start
    # Merged view in submission order: journal-replayed rows verbatim,
    # fresh rows for everything else (identical modulo timing fields to
    # an uninterrupted run — the resume contract).
    rows = [done_rows.get(i, fresh_rows.get(i)) for i in range(len(jobs))]
    rows = [row for row in rows if row is not None]
    totals = summarize_rows(rows)
    _write_batch_outputs(args, rows, totals, wall,
                         cache.stats() if cache is not None else None)
    chaos = ""
    if totals.get("hung"):
        chaos += f", {totals['hung']} hung"
    if totals.get("quarantined_outputs"):
        chaos += (f", {totals['quarantined_outputs']} quarantined "
                  f"output(s)")
    print(f"batch: {totals['jobs']} job(s) in {wall:.1f}s — "
          f"{totals['ok']} ok, {totals['degraded']} degraded, "
          f"{totals['failed']} failed; cache hits "
          f"{totals['cache_hits']}/{totals['jobs']}, "
          f"{totals['retries']} retries{chaos}")
    return 1 if totals["failed"] else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.runtime.cache import ResultCache
    from repro.serve import DecompositionService, ServeDaemon

    if args.socket is None and args.port is None:
        raise SystemExit("give --socket PATH, --port N, or both")
    workers, _ = _resolve_worker_arg(args.workers)
    weights = {}
    for spec in args.weight or ():
        tenant, sep, value = spec.partition("=")
        try:
            if not sep or float(value) <= 0:
                raise ValueError
            weights[tenant] = float(value)
        except ValueError:
            raise SystemExit(
                f"malformed --weight {spec!r} (use TENANT=W with W > 0)")
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or None)
    service = DecompositionService(
        workers=workers, cache=cache, queue_depth=args.queue_depth,
        shed=args.shed, timeout=args.timeout, retries=args.retries,
        heartbeat_s=args.heartbeat, hang_grace_s=args.hang_grace,
        weights=weights)
    daemon = ServeDaemon(
        service, socket_path=args.socket, host=args.host,
        port=args.port, allow_files=args.allow_files,
        allow_test_hooks=args.allow_test_hooks,
        max_frame_bytes=args.max_frame_bytes,
        drain_timeout=args.drain_timeout)

    def ready(d: ServeDaemon) -> None:
        if d.socket_path is not None:
            print(f"serving on unix socket {d.socket_path}")
        if d.http_address is not None:
            print(f"serving HTTP on {d.http_address[0]}:"
                  f"{d.http_address[1]}")
        print(f"{workers} worker(s), cache "
              f"{'off' if cache is None else cache.root}, "
              f"queue depth {args.queue_depth}/tenant, "
              f"shed policy {args.shed}", flush=True)

    try:
        asyncio.run(daemon.run(ready=ready))
    except KeyboardInterrupt:
        pass
    print("daemon drained; bye")
    return 0


def _cmd_dist(args) -> int:
    """`repro dist serve-node`: run one distributed worker node."""
    import signal

    from repro.dist import NodeServer, parse_nodes

    workers, _ = _resolve_worker_arg(args.workers)
    server = NodeServer(
        host=args.host, port=args.port, workers=workers,
        timeout=args.timeout, retries=args.retries,
        heartbeat_s=args.heartbeat if args.heartbeat else None,
        hang_grace_s=args.hang_grace, node_id=args.node_id,
        join_tries=args.join_tries, join_backoff_s=args.join_backoff,
        backoff_seed=args.fault_seed or 0)

    def on_term(signum, frame) -> None:
        server.close()

    signal.signal(signal.SIGTERM, on_term)
    if args.join:
        # Dial-out mode: register with a running coordinator's
        # membership listener instead of binding a port, rejoining
        # under bounded seeded-jitter backoff when the link drops.
        try:
            coord_host, coord_port = parse_nodes(args.join)[0]
        except ValueError as exc:
            raise SystemExit(f"--join: {exc}")
        print(f"node {server.node_id} joining coordinator at "
              f"{coord_host}:{coord_port} with {server.workers} worker "
              f"slot(s)", flush=True)
        try:
            clean = server.serve_join(coord_host, coord_port)
        except KeyboardInterrupt:
            server.close()
            clean = True
        if clean:
            print("node closed; bye")
            return 0
        print(f"node: gave up joining {coord_host}:{coord_port} after "
              f"{server.join_tries} attempt(s); bye")
        return 1
    server.start()
    print(f"node serving on {server.host}:{server.port} with "
          f"{server.workers} worker slot(s)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    print("node closed; bye")
    return 0


def _cmd_cache(args) -> int:
    from repro.runtime.cache import ResultCache

    cache = ResultCache(args.cache_dir or None)
    if args.cache_command == "clear":
        older = (args.older_than * 86400.0
                 if args.older_than is not None else None)
        removed = cache.clear(older_than_s=older)
        aged = "" if args.older_than is None \
            else f" older than {args.older_than:g} day(s)"
        print(f"removed {removed} cache entr"
              f"{'y' if removed == 1 else 'ies'}{aged} from {cache.root}")
        return 0
    if args.older_than is not None:
        raise SystemExit("--older-than only applies to 'cache clear'")
    # A fresh CLI process has no traffic, so probe a handful of real
    # entries (disk hits) and some absent keys (misses) to populate the
    # latency windows — enough to see what this store costs per lookup.
    probed = 0
    for path in cache.iter_files():
        if probed >= 32:
            break
        cache.get(path.stem)
        probed += 1
    for bogus in range(8):
        cache.get(hashlib.sha256(b"probe-%d" % bogus).hexdigest())
    stats = cache.stats()
    print(f"cache dir : {cache.root}")
    print(f"entries   : {stats['entries']}")
    print(f"size      : {stats['bytes']} bytes")
    for side in ("hit", "miss"):
        lat = stats[f"{side}_latency"]
        if lat["samples"]:
            print(f"{side} p50/p90/p99 : "
                  f"{lat['p50_ms']:.3f}/{lat['p90_ms']:.3f}/"
                  f"{lat['p99_ms']:.3f} ms ({lat['samples']} probes)")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-output functional decomposition with don't "
                    "cares (Scholl, DATE 1998)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered benchmark circuits")

    for cmd, help_text in (("map", "XC3000 LUT/CLB mapping"),
                           ("gates", "two-input-gate synthesis"),
                           ("verify", "map + formal equivalence check"),
                           ("compare",
                            "mulopII vs mulop-dc (one Table 1 row)")):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("name", nargs="?",
                       help="benchmark name or generator (adderN, pmN)")
        p.add_argument("--pla", help="map a PLA file instead")
        p.add_argument("--blif", help="map a BLIF file instead")
        p.add_argument("--no-dc", action="store_true",
                       help="disable don't-care exploitation (mulopII)")
        if cmd in ("map", "gates", "compare"):
            p.add_argument("--no-dsd", action="store_true",
                           help="disable the tier-0 structural pre-pass "
                                "(DSD shatter before the ncc search; "
                                "same as REPRO_DSD=off)")
            p.add_argument("--no-kernel", action="store_true",
                           help="disable the word-parallel truth-table "
                                "kernel (pure-BDD hot paths; same as "
                                "REPRO_KERNEL=off)")
            p.add_argument("--profile", action="store_true",
                           help="print the phase/BDD-counter profile")
            p.add_argument("--metrics-out", metavar="FILE",
                           help="write a JSON run trace (phase timings, "
                                "computed-table hit rate, peak nodes)")
        p.add_argument("--inject", action="append", metavar="SPEC",
                       help="arm a fault site: site:kind:prob[:nth] "
                            "(repeatable; same grammar as REPRO_FAULTS)")
        p.add_argument("--fault-seed", type=int, default=None,
                       metavar="N",
                       help="seed for the injected-fault probability "
                            "streams (same as REPRO_FAULTS_SEED)")
        if cmd in ("map", "compare"):
            p.add_argument("--cache", action="store_true",
                           help="reuse/persist results in the on-disk "
                                "result cache")
            p.add_argument("--cache-dir", metavar="DIR",
                           help="result-cache location (implies "
                                "--cache; default ~/.cache/repro or "
                                "$REPRO_CACHE_DIR)")
        if cmd == "map":
            p.add_argument("--blif-out",
                           help="write the mapped network as BLIF")
            p.add_argument("--trace", action="store_true",
                           help="print the per-step decomposition trace")

    batch = sub.add_parser(
        "batch",
        help="run many circuits through the parallel scheduler")
    batch.add_argument("names", nargs="*",
                       help="manifest entries (circuit names, pla:FILE, "
                            "blif:FILE, synth:name:i:o[:seed])")
    batch.add_argument("--manifest", metavar="FILE",
                       help="manifest file (one entry per line, # "
                            "comments)")
    batch.add_argument("--flow", choices=("map", "compare"),
                       default="map",
                       help="flow to run per circuit (default: map)")
    batch.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: CPU count)")
    batch.add_argument("--timeout", type=float, default=None,
                       metavar="S",
                       help="per-job wall-clock budget in seconds; a "
                            "job over budget degrades to the trivial "
                            "mapping instead of stalling the batch")
    batch.add_argument("--retries", type=int, default=1, metavar="K",
                       help="crash retries per job before degrading "
                            "(default: 1)")
    batch.add_argument("--no-dc", action="store_true",
                       help="disable don't-care exploitation (mulopII)")
    batch.add_argument("--inject", action="append", metavar="SPEC",
                       help="arm a fault site: site:kind:prob[:nth] "
                            "(repeatable; inherited by workers; same "
                            "grammar as REPRO_FAULTS)")
    batch.add_argument("--fault-seed", type=int, default=None,
                       metavar="N",
                       help="seed for the injected-fault probability "
                            "streams (same as REPRO_FAULTS_SEED)")
    batch.add_argument("--no-verify", action="store_true",
                       help="skip in-worker verification of mapped "
                            "networks")
    batch.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result cache")
    batch.add_argument("--cache-dir", metavar="DIR",
                       help="result-cache location (default "
                            "~/.cache/repro or $REPRO_CACHE_DIR)")
    batch.add_argument("--out", metavar="FILE",
                       help="write one JSON result row per job (JSONL)")
    batch.add_argument("--include-blif", action="store_true",
                       help="embed mapped-network BLIF in the JSONL "
                            "rows")
    batch.add_argument("--metrics-out", metavar="FILE",
                       help="write the batch metrics document (per-job "
                            "queue/exec/cache/retry stats)")
    batch.add_argument("--journal", metavar="FILE",
                       help="write a crash-safe write-ahead journal; a "
                            "killed batch resumes with --resume FILE")
    batch.add_argument("--resume", metavar="FILE",
                       help="resume a journaled batch: completed jobs "
                            "are replayed from the journal, in-flight "
                            "and unstarted ones are (re)run")
    batch.add_argument("--heartbeat", type=float, default=1.0,
                       metavar="S",
                       help="worker liveness beat interval in seconds "
                            "(default: 1.0; 0 disables beats)")
    batch.add_argument("--hang-grace", type=float, default=None,
                       metavar="S",
                       help="kill a worker silent for S seconds and "
                            "degrade its job without retry (default: "
                            "off — only --timeout applies)")
    batch.add_argument("--nodes", metavar="HOST:PORT,...",
                       help="shard the batch across these worker nodes "
                            "(repro dist serve-node) instead of local "
                            "worker processes; the result cache is "
                            "served to the nodes over TCP")
    batch.add_argument("--join-port", type=int, default=0, metavar="N",
                       help="with --nodes: membership listener port for "
                            "late joiners (repro dist serve-node "
                            "--join); default 0 picks a free port, -1 "
                            "disables the listener")
    batch.add_argument("--rpc-tries", type=int, default=3, metavar="K",
                       help="with --nodes: bounded seeded-jitter "
                            "connect/redial attempts per node before "
                            "declaring it lost (default: 3)")
    batch.add_argument("--rpc-backoff", type=float, default=0.2,
                       metavar="S",
                       help="with --nodes: base of the jittered retry "
                            "backoff in seconds (default: 0.2)")
    batch.add_argument("--stable-rows", action="store_true",
                       help="zero the volatile timing fields "
                            "(queue_wait_s, exec_s, beats) in output "
                            "rows, so runs compare byte-identically")

    dist = sub.add_parser(
        "dist", help="distributed batch tier (worker nodes)")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)
    node_p = dist_sub.add_parser(
        "serve-node",
        help="run one worker node (pair with repro batch --nodes)")
    node_p.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    node_p.add_argument("--port", type=int, default=0, metavar="N",
                        help="TCP port (default: 0 picks a free port)")
    node_p.add_argument("--workers", type=int, default=None, metavar="N",
                        help="concurrent jobs on this node (default: "
                             "CPU count, capped at 8)")
    node_p.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="fallback per-job budget when the "
                             "coordinator sends none")
    node_p.add_argument("--retries", type=int, default=1, metavar="K",
                        help="fallback crash retries per job "
                             "(default: 1)")
    node_p.add_argument("--heartbeat", type=float, default=1.0,
                        metavar="S",
                        help="worker liveness beat interval (default: "
                             "1.0; 0 disables)")
    node_p.add_argument("--hang-grace", type=float, default=None,
                        metavar="S",
                        help="kill a worker silent for S seconds "
                             "(default: off)")
    node_p.add_argument("--join", metavar="HOST:PORT", default=None,
                        help="dial a running coordinator's membership "
                             "listener instead of binding a port — how "
                             "a late node joins a batch mid-run")
    node_p.add_argument("--join-tries", type=int, default=5,
                        metavar="K",
                        help="bounded join/rejoin attempts before "
                             "giving up (default: 5)")
    node_p.add_argument("--join-backoff", type=float, default=0.5,
                        metavar="S",
                        help="base of the seeded-jitter rejoin backoff "
                             "in seconds (default: 0.5)")
    node_p.add_argument("--node-id", metavar="ID", default=None,
                        help="stable identity across reconnects "
                             "(default: hostname-pid); a rejoin under "
                             "the same id re-registers in place")
    node_p.add_argument("--inject", action="append", metavar="SPEC",
                        help="arm a fault site: site:kind:prob[:nth] "
                             "(repeatable; e.g. node.loss:crash:1:3 "
                             "kills this node on its 3rd job)")
    node_p.add_argument("--fault-seed", type=int, default=None,
                        metavar="N",
                        help="seed for the injected-fault probability "
                             "streams (same as REPRO_FAULTS_SEED)")

    serve = sub.add_parser(
        "serve",
        help="run the async decomposition daemon (unix socket / HTTP)")
    serve.add_argument("--socket", metavar="PATH",
                       help="unix socket path for the NDJSON front-end")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="TCP port for the HTTP front-end (0 picks a "
                            "free port)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default: 127.0.0.1)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="persistent worker processes (default: CPU "
                            "count; 0 or negative clamps to auto)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       metavar="N",
                       help="admission-control queue depth per tenant "
                            "(default: 64)")
    serve.add_argument("--shed", choices=("degrade", "reject"),
                       default="degrade",
                       help="over-budget policy: serve the verified "
                            "trivial mapping (degrade, default) or "
                            "reject with a typed 'overloaded' error")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="S",
                       help="per-request wall-clock budget in seconds "
                            "(over budget degrades, as in batch)")
    serve.add_argument("--retries", type=int, default=1, metavar="K",
                       help="crash retries per request before degrading "
                            "(default: 1)")
    serve.add_argument("--heartbeat", type=float, default=1.0,
                       metavar="S",
                       help="worker liveness beat interval (default: "
                            "1.0; 0 disables)")
    serve.add_argument("--hang-grace", type=float, default=None,
                       metavar="S",
                       help="kill a worker silent for S seconds and "
                            "degrade its request (default: off)")
    serve.add_argument("--weight", action="append", metavar="TENANT=W",
                       help="fair-queue weight for a tenant "
                            "(repeatable; default weight 1.0)")
    serve.add_argument("--max-frame-bytes", type=int, default=None,
                       metavar="N",
                       help="request frame/body ceiling (default: "
                            "$REPRO_SERVE_MAX_FRAME_BYTES or 4 MiB)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S",
                       help="graceful-shutdown budget on SIGTERM "
                            "(default: 30)")
    serve.add_argument("--allow-files", action="store_true",
                       help="serve pla:/blif: file paths (the daemon "
                            "reads local files on clients' behalf)")
    serve.add_argument("--allow-test-hooks", action="store_true",
                       help="accept request 'test_hook' fields "
                            "(chaos/CI only)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the persistent result cache")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="result-cache location (default "
                            "~/.cache/repro or $REPRO_CACHE_DIR)")
    serve.add_argument("--inject", action="append", metavar="SPEC",
                       help="arm a fault site: site:kind:prob[:nth] "
                            "(repeatable; inherited by workers; same "
                            "grammar as REPRO_FAULTS)")
    serve.add_argument("--fault-seed", type=int, default=None,
                       metavar="N",
                       help="seed for the injected-fault probability "
                            "streams (same as REPRO_FAULTS_SEED)")

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache_p.add_argument("cache_command", choices=("stats", "clear"))
    cache_p.add_argument("--cache-dir", metavar="DIR",
                         help="cache location (default ~/.cache/repro "
                              "or $REPRO_CACHE_DIR)")
    cache_p.add_argument("--older-than", type=float, default=None,
                         metavar="DAYS",
                         help="clear only entries older than DAYS days")

    args = parser.parse_args(argv)
    if getattr(args, "no_dsd", False):
        os.environ["REPRO_DSD"] = "off"
    if getattr(args, "no_kernel", False):
        os.environ["REPRO_KERNEL"] = "off"
    if getattr(args, "inject", None):
        from repro import faults
        try:
            # Armed via the environment so worker processes inherit it.
            faults.arm(",".join(args.inject),
                       seed=getattr(args, "fault_seed", None))
        except faults.FaultSpecError as exc:
            raise SystemExit(str(exc))
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "map":
        return _cmd_map(args)
    if args.command == "gates":
        return _cmd_gates(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "dist":
        return _cmd_dist(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
