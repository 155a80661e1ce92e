"""Package-surface checks: exports exist, are documented, and import
cleanly from a cold interpreter."""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

PACKAGES = [
    "repro",
    "repro.bdd",
    "repro.boolfunc",
    "repro.symmetry",
    "repro.decomp",
    "repro.mapping",
    "repro.network",
    "repro.twolevel",
    "repro.verify",
    "repro.arith",
    "repro.bench",
    "repro.core",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"
        obj = getattr(module, symbol)
        if callable(obj) and not isinstance(obj, type(importlib)):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_cold_import_is_fast_and_clean():
    code = "import repro; print(repro.__version__)"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1.0.0"
    assert result.stderr.strip() == ""


def test_no_circular_import_traps():
    # Importing leaf modules directly must work without importing the
    # whole world first.
    for name in ("repro.decomp.cut_count", "repro.mapping.flowmap",
                 "repro.twolevel.primes", "repro.network.bitsim"):
        code = f"import {name}"
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, (name, result.stderr)


def test_runs_without_numpy():
    # With numpy blocked, every module imports and the kernel serves
    # a real map: the package has no numpy dependency left.
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        sys.modules["numpy"] = None  # numpy is now unimportable
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name != "repro.__main__":  # importing it runs the CLI
                importlib.import_module(info.name)
        from repro.bench.registry import benchmark
        from repro.core.api import map_to_xc3000
        stats = map_to_xc3000(benchmark("rd84")).stats
        print(stats.kernel_metrics["kernel_hits"])
    """)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL"}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) > 0
