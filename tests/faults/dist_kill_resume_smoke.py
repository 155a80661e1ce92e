#!/usr/bin/env python
"""End-to-end crash-safety smoke for the *distributed* tier: SIGKILL a
journaled 2-node coordinator mid-batch, resume it.

The scenario ``repro batch --nodes --journal`` exists for:

1. start two ``repro dist serve-node`` workers,
2. start an 8-job batch with ``--nodes ... --journal`` and ``kill -9``
   the **coordinator** once at least 2 jobs are journaled done (and
   before the batch finishes) — the nodes survive,
3. ``repro batch --nodes ... --resume <journal>`` — journaled ``done``
   rows are spliced verbatim (no re-execution), only incomplete jobs
   are re-prepared and re-sharded by the same content-stable key hash,
4. under ``--stable-rows`` the resumed merged JSONL must be
   byte-identical (``cmp``) to BOTH an uninterrupted distributed run
   and a single-host run.

Runs ``--no-cache`` throughout: a node that finished a job in the kill
window would otherwise leave a cache entry behind, and the resumed row
would carry ``cache_hit: true`` where the uninterrupted runs executed.

Standalone (CI runs it directly; ``test_dist_kill_resume.py`` wraps it
for pytest).  Exits 0 on success, 1 with a diagnostic on failure.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small circuits first (so completions land fast), the slower ones last
#: (so the kill reliably lands mid-batch).
MANIFEST = ("xor5", "rd53", "majority", "misex1",
            "rd73", "rd84", "5xp1", "duke2")

#: ``sleep`` test hooks on the tail: each holds its job open for a
#: fixed wall time, so the kill lands mid-batch however fast the
#: compiler maps the circuits themselves.
TAIL_HOOKS = {"5xp1": "sleep=1", "duke2": "sleep=2"}


def manifest_text():
    """The manifest: one circuit per line, tail jobs with their hook."""
    return "".join(f"{name}!{TAIL_HOOKS[name]}\n" if name in TAIL_HOOKS
                   else f"{name}\n" for name in MANIFEST)


def fail(message, proc=None):
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(f"--- stdout ---\n{proc.stdout}", file=sys.stderr)
        print(f"--- stderr ---\n{proc.stderr}", file=sys.stderr)
    sys.exit(1)


def batch_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def spawn_node():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "dist", "serve-node",
         "--port", "0", "--workers", "2", "--heartbeat", "0.5"],
        env=batch_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    while True:
        line = proc.stdout.readline()
        if "node serving on" in line:
            addr = line.split("node serving on", 1)[1].split()[0]
            return proc, addr
        if not line or time.monotonic() > deadline:
            proc.kill()
            fail("worker node failed to become ready")


def dist_cmd(nodes, *extra):
    return [sys.executable, "-m", "repro", "batch", "--no-cache",
            "--stable-rows", "--nodes", nodes, *extra]


def count_records(journal, kind):
    try:
        with open(journal) as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return 0
    count = 0
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == kind:
            count += 1
    return count


def main():
    tmp = Path(tempfile.mkdtemp(prefix="repro-dist-kill-resume-"))
    manifest = tmp / "suite.txt"
    manifest.write_text(manifest_text())
    journal = tmp / "dist.journal.jsonl"
    resumed_out = tmp / "resumed.jsonl"
    dist_out = tmp / "dist-clean.jsonl"
    single_out = tmp / "single.jsonl"

    node_a, addr_a = spawn_node()
    node_b, addr_b = spawn_node()
    nodes = f"{addr_a},{addr_b}"
    try:
        # 1. Journaled distributed batch, coordinator killed -9 mid-run.
        victim = subprocess.Popen(
            dist_cmd(nodes, "--manifest", str(manifest),
                     "--journal", str(journal),
                     "--out", str(tmp / "interrupted.jsonl")),
            env=batch_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 300
        while count_records(journal, "done") < 2:
            if victim.poll() is not None:
                out, err = victim.communicate()
                fail(f"batch exited (rc={victim.returncode}) before "
                     f"the kill\n--- stdout ---\n{out}\n--- stderr ---"
                     f"\n{err}")
            if time.monotonic() > deadline:
                victim.kill()
                fail("timed out waiting for 2 journaled done rows")
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        victim.stdout.close()
        victim.stderr.close()
        survived = count_records(journal, "done")
        claims = count_records(journal, "claim")
        if survived >= len(MANIFEST):
            fail(f"kill landed after all {survived} jobs completed — "
                 f"the smoke proved nothing; is the machine overloaded?")
        if claims < 1:
            fail(f"journal holds no claim records ({survived} done) — "
                 f"the coordinator did not journal its dispatches")
        print(f"killed coordinator with {survived}/{len(MANIFEST)} "
              f"job(s) journaled done, {claims} claim(s) recorded")

        # 2. Resume against the surviving nodes: done rows splice, only
        # the incomplete jobs rerun.
        resume = subprocess.run(
            dist_cmd(nodes, "--resume", str(journal),
                     "--out", str(resumed_out)),
            env=batch_env(), capture_output=True, text=True, timeout=300)
        if resume.returncode != 0:
            fail(f"resume exited {resume.returncode}", resume)
        if f"{survived} job(s) already done" not in resume.stdout:
            fail(f"resume did not report {survived} already-done "
                 f"job(s)", resume)
        reran = sum(f"] {name}:" in resume.stdout for name in MANIFEST)
        if reran != len(MANIFEST) - survived:
            fail(f"resume reran {reran} job(s), expected "
                 f"{len(MANIFEST) - survived}", resume)

        # 3. Uninterrupted distributed reference run.
        clean = subprocess.run(
            dist_cmd(nodes, "--manifest", str(manifest),
                     "--out", str(dist_out)),
            env=batch_env(), capture_output=True, text=True, timeout=300)
        if clean.returncode != 0:
            fail(f"distributed reference exited {clean.returncode}",
                 clean)
    finally:
        for proc in (node_a, node_b):
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()

    # 4. Single-host reference run.
    single = subprocess.run(
        [sys.executable, "-m", "repro", "batch", "--no-cache",
         "--stable-rows", "--jobs", "2", "--manifest", str(manifest),
         "--out", str(single_out)],
        env=batch_env(), capture_output=True, text=True, timeout=300)
    if single.returncode != 0:
        fail(f"single-host reference exited {single.returncode}", single)

    # 5. Byte-identical across all three (--stable-rows zeroed the
    # volatile timing fields, so this is a raw cmp).
    resumed_bytes = resumed_out.read_bytes()
    if resumed_bytes != dist_out.read_bytes():
        fail("resumed output differs from the uninterrupted "
             "distributed run")
    if resumed_bytes != single_out.read_bytes():
        fail("resumed output differs from the single-host run")

    print(f"dist kill-resume smoke OK: {survived} journaled row(s) "
          f"spliced verbatim, {len(MANIFEST) - survived} rerun across "
          f"2 nodes, merged output byte-identical to the uninterrupted "
          f"distributed AND single-host runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
