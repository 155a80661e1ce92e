"""End-to-end differential: full mapping flow, kernel on vs off.

Every Table 1 circuit whose input count fits the kernel threshold must
map to a byte-identical network either way, under both drivers — the
kernel is a pure performance substitution, never a behaviour change.
So must the wide rows whose outputs each fit the kernel although their
union does not (the compatible-class ops size their tables per output).
"""

import pytest

from repro.bench.registry import BENCHMARKS, benchmark
from repro.core.api import map_to_xc3000
from repro.kernel import MAX_VARS

SMALL_CIRCUITS = sorted(
    name for name, spec in BENCHMARKS.items()
    if spec.num_inputs <= MAX_VARS)

#: Rows wider than the cap, served through per-output table domains.
#: C880 and duke2 also have outputs of 17-24 live variables, whose calls
#: take the BDD path beside the kernel-served ones.
WIDE_CIRCUITS = ["C880", "apex7", "count", "duke2", "misex2", "vg2"]

#: (circuit, use_dontcares): mulop-dc under the bare circuit id,
#: mulopII (no don't-care steps) as ``<circuit>-mulopII``.
CASES = [pytest.param(name, dc, id=name if dc else f"{name}-mulopII")
         for name in SMALL_CIRCUITS + WIDE_CIRCUITS for dc in (True, False)]


def test_expected_coverage():
    # All Table 1 circuits at or below the 16-var cap.
    assert set(SMALL_CIRCUITS) >= {
        "5xp1", "9sym", "alu2", "clip", "f51m", "misex1", "rd73",
        "rd84", "sao2", "z4ml", "rd53", "sym10", "t481", "xor5",
    }
    assert not set(WIDE_CIRCUITS) & set(SMALL_CIRCUITS)


@pytest.mark.parametrize("name,use_dontcares", CASES)
def test_mapping_identical(name, use_dontcares, monkeypatch):
    func = benchmark(name)
    monkeypatch.setenv("REPRO_KERNEL", "off")
    ref = map_to_xc3000(func, use_dontcares=use_dontcares)
    assert ref.stats.kernel_metrics["kernel_hits"] == 0
    monkeypatch.setenv("REPRO_KERNEL", "on")
    hit = map_to_xc3000(func, use_dontcares=use_dontcares)
    if func.num_inputs > 5:  # wider than one LUT => decomposition ran
        assert hit.stats.kernel_metrics["kernel_hits"] > 0
    assert (hit.lut_count, hit.clb_count, hit.depth) == \
        (ref.lut_count, ref.clb_count, ref.depth)
    assert hit.network.to_blif() == ref.network.to_blif()
