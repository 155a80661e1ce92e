#!/usr/bin/env python
"""End-to-end crash-safety smoke: SIGKILL a journaled batch, resume it.

The scenario the journal exists for:

1. start an 8-job batch with ``--journal``,
2. ``kill -9`` the batch parent once at least 2 jobs have completed
   (and before the batch finishes),
3. ``repro batch --resume <journal>`` — must rerun only the jobs
   without a ``done`` record,
4. the resumed output must be byte-identical to an uninterrupted
   reference run modulo the timing/retry fields
   (``queue_wait_s``/``exec_s``/``retries``/``beats``).

Standalone (CI runs it directly; ``test_kill_resume.py`` wraps it for
pytest).  Exits 0 on success, 1 with a diagnostic on failure.
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


#: Row fields that legitimately differ between runs.
TIMING_FIELDS = ("queue_wait_s", "exec_s", "retries", "beats")


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


def batch_cmd(*extra):
    return [sys.executable, "-m", "repro", "batch", "--jobs", "2",
            "--no-cache", *extra]


def count_done(journal):
    try:
        with open(journal) as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return 0
    done = 0
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("kind") == "done":
            done += 1
    return done


def normalize(path):
    rows = []
    for line in open(path):
        row = json.loads(line)
        rows.append(json.dumps(
            {k: v for k, v in row.items() if k not in TIMING_FIELDS},
            sort_keys=True))
    return rows


def main():
    tmp = Path(tempfile.mkdtemp(prefix="repro-kill-resume-"))
    manifest = tmp / "suite.txt"
    manifest.write_text(manifest_text())
    journal = tmp / "batch.journal.jsonl"
    resumed_out = tmp / "resumed.jsonl"
    clean_out = tmp / "clean.jsonl"

    # 1. Journaled batch, killed -9 mid-run.
    victim = subprocess.Popen(
        batch_cmd("--manifest", str(manifest), "--journal", str(journal),
                  "--out", str(tmp / "interrupted.jsonl")),
        env=batch_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 300
    while count_done(journal) < 2:
        if victim.poll() is not None:
            out, err = victim.communicate()
            fail(f"batch exited (rc={victim.returncode}) before the "
                 f"kill\n--- stdout ---\n{out}\n--- stderr ---\n{err}")
        if time.monotonic() > deadline:
            victim.kill()
            fail("timed out waiting for 2 completed jobs")
        time.sleep(0.05)
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    victim.stdout.close()
    victim.stderr.close()
    survived = count_done(journal)
    if survived >= len(MANIFEST):
        fail(f"kill landed after all {survived} jobs completed — "
             f"the smoke proved nothing; is the machine overloaded?")
    print(f"killed batch parent with {survived}/{len(MANIFEST)} "
          f"job(s) journaled as done")

    # 2. Resume: only the incomplete jobs may rerun.
    resume = subprocess.run(
        batch_cmd("--resume", str(journal), "--out", str(resumed_out)),
        env=batch_env(), capture_output=True, text=True, timeout=300)
    if resume.returncode != 0:
        fail(f"resume exited {resume.returncode}", resume)
    if f"{survived} job(s) already done" not in resume.stdout:
        fail(f"resume did not report {survived} already-done job(s)",
             resume)
    reran = sum(f"] {name}:" in resume.stdout for name in MANIFEST)
    if reran != len(MANIFEST) - survived:
        fail(f"resume reran {reran} job(s), expected "
             f"{len(MANIFEST) - survived}", resume)

    # 3. Uninterrupted reference run.
    clean = subprocess.run(
        batch_cmd("--manifest", str(manifest), "--out", str(clean_out)),
        env=batch_env(), capture_output=True, text=True, timeout=300)
    if clean.returncode != 0:
        fail(f"reference run exited {clean.returncode}", clean)

    # 4. Byte-identical modulo timing fields.
    resumed_rows = normalize(resumed_out)
    clean_rows = normalize(clean_out)
    if resumed_rows != clean_rows:
        for index, (a, b) in enumerate(zip(resumed_rows, clean_rows)):
            if a != b:
                fail(f"row {index} differs after resume:\n"
                     f"resumed: {a}\nclean:   {b}")
        fail(f"row count differs: {len(resumed_rows)} resumed vs "
             f"{len(clean_rows)} clean")

    print(f"kill-resume smoke OK: {survived} journaled row(s) spliced "
          f"verbatim, {len(MANIFEST) - survived} rerun, merged output "
          f"identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
