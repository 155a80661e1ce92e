"""Shared infrastructure for the experiment benches.

Every bench prints its table rows through the session-scoped
:class:`RowCollector`; a terminal-summary hook renders each experiment's
table after the pytest-benchmark timing table, and the rows are also
written to ``benchmarks/out/<experiment>.txt`` so the reproduced tables
survive the run.

Set ``REPRO_BENCH_FAST=1`` to skip the heavy circuits (rot, e64, ...).
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Dict, List

import pytest

OUT_DIR = Path(__file__).parent / "out"

FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "") == "1"


class RowCollector:
    """Collects printable rows per experiment table."""

    def __init__(self) -> None:
        self.tables: Dict[str, List[str]] = {}

    def add(self, table: str, row: str) -> None:
        self.tables.setdefault(table, []).append(row)

    def flush(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        for table, rows in self.tables.items():
            path = OUT_DIR / f"{table}.txt"
            path.write_text("\n".join(rows) + "\n")


_COLLECTOR = RowCollector()


@pytest.fixture(scope="session")
def rows() -> RowCollector:
    return _COLLECTOR


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _COLLECTOR.flush()
    for table, table_rows in _COLLECTOR.tables.items():
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {table} ===")
        for row in table_rows:
            terminalreporter.write_line(row)


def verify_network(func, net, samples: int = 100) -> bool:
    """Verify a mapped network against its specification.

    Formal (BDD-based, exact) for networks of reasonable size; random
    sampling for the very large budget-fallback networks where symbolic
    simulation would dominate the bench runtime.
    """
    if getattr(net, "lut_count", 10**9) <= 3000:
        from repro.verify.equiv import check_extension
        return bool(check_extension(func, net))
    from repro.verify.bitsim import sample_check
    return sample_check(func, net, patterns=max(samples, 128))


def skip_if_fast(heavy: bool) -> None:
    if FAST_MODE and heavy:
        pytest.skip("REPRO_BENCH_FAST=1 skips heavy circuits")


def obs_summary(stats) -> str:
    """Compact observability column for table rows: computed-table hit
    rate plus the most expensive engine phase of the run."""
    parts = []
    bm = getattr(stats, "bdd_metrics", None)
    if bm is not None:
        parts.append(f"hit {100.0 * bm.computed_hit_rate:.0f}%")
    phases = stats.phase_profile()
    if phases:
        top = max(phases, key=lambda n: phases[n]["time_s"])
        parts.append(f"{top} {phases[top]['time_s']:.2f}s")
    return " ".join(parts)


def dump_metrics(experiment: str, name: str, command: str, stats,
                 result: dict) -> None:
    """Write one row's machine-readable trace next to the table output
    (``benchmarks/out/<experiment>.<name>.metrics.json``)."""
    from repro.obs import run_metrics, write_metrics
    OUT_DIR.mkdir(exist_ok=True)
    doc = run_metrics(command=command, source=name, stats=stats,
                      bdd_metrics=getattr(stats, "bdd_metrics", None),
                      result=result)
    write_metrics(str(OUT_DIR / f"{experiment}.{name}.metrics.json"), doc)
