"""The kernel suite measures the live search (kernel on vs off), so
the sub-ISF memo must not splice past the code under test: a warm hit
legitimately skips the kernel entirely, which is correct behaviour but
zeroes the ``kernel_hits`` counters these differentials assert on."""

import pytest


@pytest.fixture(autouse=True)
def _no_submemo(monkeypatch):
    monkeypatch.setenv("REPRO_SUBMEMO", "off")
