"""The sub-ISF memo is deleted; ``repro.decomp.submemo`` keeps only an
inert ``SubMemoStore`` that the benchmark harness under ``perfbench/``
still passes to every map.  Passing it must change nothing."""

import pytest

from repro.bench.registry import BENCHMARKS, benchmark
from repro.core.api import map_to_xc3000
from repro.decomp.submemo import SubMemoStore

FAST_TABLE1 = [name for name, spec in BENCHMARKS.items()
               if not spec.heavy]


@pytest.mark.parametrize("name", FAST_TABLE1)
def test_store_is_ignored(name):
    for dc in (False, True):
        with_store = map_to_xc3000(benchmark(name), use_dontcares=dc,
                                   submemo_store=SubMemoStore())
        plain = map_to_xc3000(benchmark(name), use_dontcares=dc)
        assert with_store.to_record() == plain.to_record()
        assert with_store.stats.submemo == {}
