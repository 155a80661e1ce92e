# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-fast examples lint clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Skip the heavy circuits (rot, e64, C499, ...).
bench-fast:
	REPRO_BENCH_FAST=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/dontcare_symmetry.py
	$(PYTHON) examples/adder_synthesis.py 2 4
	$(PYTHON) examples/multiplier_scheme.py 3
	$(PYTHON) examples/ecc_decoder.py
	$(PYTHON) examples/fpga_flow.py rd73 rd84 z4ml

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks benchmarks/out
