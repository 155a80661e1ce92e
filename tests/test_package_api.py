"""Package-surface checks: exports exist, are documented, and import
cleanly from a cold interpreter."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.bdd",
    "repro.boolfunc",
    "repro.symmetry",
    "repro.decomp",
    "repro.mapping",
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
                 "repro.verify.bitsim"):
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


def _modules():
    """Dotted name -> path of every module under ``src/repro``."""
    mods = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        mods[".".join(parts)] = path
    return mods


def _repro_imports(tree, is_package):
    """``(module, name)`` pairs a module imports from ``repro``
    (``name`` is None for ``import repro.x``).  A package's top-level
    ``from`` import whose name its own code never uses is a re-export
    and is skipped."""
    used = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            if is_package else None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names
                        if a.name.split(".")[0] == "repro")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "repro"):
            for a in node.names:
                if (used is None or node not in tree.body
                        or (a.asname or a.name) in used):
                    yield node.module, a.name


def test_every_module_is_reached_from_an_entry_point():
    # Walk imports from the CLI, ``python -m repro``, the benchmarks and
    # perfbench.  ``from pkg import name`` reaches the submodule that
    # defines ``name`` (following pkg/__init__ re-exports), not the rest
    # of the package.  Only the reference oracles the tests compare
    # against may stay unreached.
    mods = _modules()
    packages = {m for m, p in mods.items() if p.name == "__init__.py"}
    trees = {m: ast.parse(p.read_text()) for m, p in mods.items()}

    def definer(pkg, name):
        if f"{pkg}.{name}" in mods:
            return f"{pkg}.{name}"
        for node in trees[pkg].body:
            if isinstance(node, ast.ImportFrom) and node.module in mods:
                for a in node.names:
                    if (a.asname or a.name) == name:
                        if node.module in packages:
                            return definer(node.module, a.name)
                        return node.module
        return pkg

    entries = [trees["repro.cli"], trees["repro.__main__"]]
    entries += [ast.parse(p.read_text())
                for d in ("benchmarks", "perfbench")
                for p in sorted((ROOT / d).glob("*.py"))]
    reached = {"repro.cli", "repro.__main__"}
    todo = [(tree, False) for tree in entries]
    while todo:
        tree, is_package = todo.pop()
        for module, name in _repro_imports(tree, is_package):
            if name is None:
                parts = module.split(".")
                targets = [".".join(parts[:i + 1])
                           for i in range(len(parts))]
            elif module in packages:
                targets = [module, definer(module, name)]
            else:
                targets = [module]
            for target in targets:
                if target in mods and target not in reached:
                    reached.add(target)
                    todo.append((trees[target], target in packages))
    unreached = set(mods) - reached - packages
    assert unreached == {"repro.bdd.reorder", "repro.boolfunc.truthtable",
                         "repro.decomp.cut_count"}
