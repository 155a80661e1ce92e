#!/usr/bin/env python3
"""Assemble the regenerated experiment tables into one report.

Reads the ``benchmarks/out/*.txt`` files written by the bench harness
and prints them in the paper's order, ready to paste into
EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/summarize.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ORDER = [
    ("fig2_adder", "Figure 2 — adder, two-input gates"),
    ("fig3_pm", "Figure 3 — partial multiplier pm_n"),
    ("multiplier_scaling", "Section 6.1 — multiplier scaling"),
    ("table1", "Table 1 — mulopII vs mulop-dc (XC3000 CLBs)"),
    ("table2", "Table 2 — mulop-dcII vs baseline mappers"),
    ("ablation_dcsteps", "Ablation — don't-care steps"),
    ("ablation_cover", "Ablation — clique cover quality"),
]


def main(out_dir: Path = None) -> int:
    out_dir = out_dir or Path(__file__).parent / "out"
    if not out_dir.is_dir():
        print(f"no {out_dir} — run the benches first", file=sys.stderr)
        return 1
    missing = []
    for stem, title in ORDER:
        path = out_dir / f"{stem}.txt"
        print(f"== {title} " + "=" * max(0, 60 - len(title)))
        if path.exists():
            print(path.read_text().rstrip())
        else:
            print("(not generated)")
            missing.append(stem)
        print()
    if missing:
        print(f"missing: {', '.join(missing)}", file=sys.stderr)
    print_hotpaths(out_dir.parent.parent / "BENCH_hotpaths.json")
    return 0


def print_hotpaths(path: Path) -> None:
    """Append the kernel hot-path micro-benchmark, when present.

    Written by ``benchmarks/bench_hotpaths.py`` to the repo root —
    not a paper experiment, so it rides after the table order.
    """
    title = "Kernel hot paths — word-parallel vs pure-BDD"
    print(f"== {title} " + "=" * max(0, 60 - len(title)))
    if not path.exists():
        print("(not generated — run benchmarks/bench_hotpaths.py)")
        print()
        return
    doc = json.loads(path.read_text())
    summary = doc.get("summary", {})
    print(f"seeds {doc.get('seeds')}; calibration "
          f"{doc.get('calibration_s', 0) * 1e3:.2f} ms/unit")
    for row in doc.get("cases", []):
        print(f"  seed={row['seed']} nvars={row['nvars']:2d} "
              f"{row['op']:<25s} bdd {row['bdd_s']*1e3:8.2f} ms   "
              f"kernel {row['kernel_s']*1e3:8.2f} ms   "
              f"speedup {row['speedup']:6.2f}x")
    print(f"geomean speedup: {summary.get('geomean_speedup', 0):.2f}x  "
          f"by nvars: "
          + "  ".join(f"{n}:{v:.2f}x" for n, v in
                      summary.get("geomean_speedup_by_nvars", {}).items()))
    print()


if __name__ == "__main__":
    sys.exit(main())
