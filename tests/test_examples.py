"""The examples must run and verify themselves (fast ones executed
directly; the heavier ones are smoke-tested with reduced arguments)."""

import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, args=()):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=600)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "0 mismatches" in result.stdout
        assert "mulop-dc" in result.stdout

    def test_dontcare_symmetry(self):
        result = run_example("dontcare_symmetry.py")
        assert result.returncode == 0, result.stderr
        assert "common decomposition functions" in result.stdout
        assert "step 1" in result.stdout

    def test_fpga_flow_selected(self):
        result = run_example("fpga_flow.py", ["rd73", "z4ml"])
        assert result.returncode == 0, result.stderr
        assert "rd73" in result.stdout
        assert "total" in result.stdout

    def test_adder_synthesis_small(self):
        result = run_example("adder_synthesis.py", ["2", "4"])
        assert result.returncode == 0, result.stderr
        assert "cond-sum" in result.stdout

    def test_multiplier_scheme_small(self):
        result = run_example("multiplier_scheme.py", ["3"])
        assert result.returncode == 0, result.stderr
        assert "Wallace" in result.stdout
        assert "paper: +75%" in result.stdout

    def test_ecc_decoder(self):
        result = run_example("ecc_decoder.py")
        assert result.returncode == 0, result.stderr
        assert "40/40" in result.stdout
