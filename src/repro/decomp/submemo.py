"""Inert stand-ins for the deleted sub-ISF memo, kept for ``perfbench/``.

No module under ``src/repro`` imports this one.  The frozen benchmark
harness still passes a ``SubMemoStore`` to every map and prints the two
switches on its config line, so they stay here until it retires them.
"""

from __future__ import annotations


class SubMemoStore:
    """Inert store: perfbench is its only reader
    (:func:`repro.core.api.map_to_xc3000` ignores it)."""


def submemo_enabled() -> bool:
    """Always ``False``; perfbench's config line is its only reader."""
    return False


def verify_enabled() -> bool:
    """Always ``False``; perfbench's config line is its only reader."""
    return False


__all__ = ["SubMemoStore", "submemo_enabled", "verify_enabled"]
