"""FPGA mapping: LUT networks, XC3000 CLB merging, gate-level synthesis
and baseline mappers."""

from repro.mapping.lutnet import LutNetwork
from repro.mapping.clb import clb_count, merge_luts_xc3000
from repro.mapping.gatelevel import GateNetwork, to_gates
from repro.mapping.baselines import mux_tree_map, structural_cut_map
from repro.mapping.flowmap import flowmap

__all__ = [
    "LutNetwork",
    "clb_count",
    "merge_luts_xc3000",
    "GateNetwork",
    "to_gates",
    "mux_tree_map",
    "structural_cut_map",
    "flowmap",
]
