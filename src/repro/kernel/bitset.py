"""Packed truth tables as Python bignum masks.

A table over ``n`` variables is one non-negative ``int`` of ``2**n``
bits: bit ``k`` is table entry ``k``, and tables follow the
package-wide MSB-first convention (entry ``k`` has the first variable
as the most significant bit of ``k``).  Read 64 bits at a time, a mask
is exactly the word list of the pure-Python reference
:func:`repro.boolfunc.truthtable.pack64`.

CPython's C-level bignum AND/OR/shift does the interval algebra of the
clique cover, the symmetry predicates and the DSD splits.  What has no
single bignum operation is gathering a variable's two cofactor halves,
which :func:`split_int` does on the mask's little-endian bytes;
:func:`sel0` builds the per-variable selector masks.
"""

from __future__ import annotations

from typing import Dict, Tuple


def _compaction_tables(stride: int) -> Tuple[bytes, bytes, bytes, bytes]:
    """``bytes.translate`` tables for a sub-byte ``stride``.

    Each byte holds four ``x = 0`` and four ``x = 1`` bits; the tables
    map it to the four bits of either half, compacted into the low
    nibble or the high nibble: ``(lo_low, lo_high, hi_low, hi_high)``.
    """
    lo, hi = bytearray(256), bytearray(256)
    for byte in range(256):
        halves = [0, 0]
        filled = [0, 0]
        for pos in range(8):
            side = (pos // stride) & 1
            halves[side] |= ((byte >> pos) & 1) << filled[side]
            filled[side] += 1
        lo[byte], hi[byte] = halves
    return (bytes(lo), bytes(b << 4 for b in lo),
            bytes(hi), bytes(b << 4 for b in hi))


_COMPACT = {stride: _compaction_tables(stride) for stride in (1, 2, 4)}

#: ``memoryview`` item formats for 1-, 2-, 4- and 8-byte blocks.
_BLOCK_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def split_int(mask: int, nbits: int, stride: int) -> Tuple[int, int]:
    """Cofactor halves of a packed table along one variable axis.

    ``stride`` is the variable's bit stride in the table (``2**k`` for
    the ``k``-th axis from the right, MSB-first layout): entries come in
    alternating blocks of ``stride`` bits with the variable 0 then 1.
    Returns ``(mask0, mask1)``, each compacted to ``nbits // 2`` —
    exactly the tables a fresh extraction over the reduced variable
    tuple would produce.
    """
    if stride << 1 == nbits:  # the top variable: two contiguous halves
        return mask & ((1 << stride) - 1), mask >> stride
    raw = mask.to_bytes((nbits + 7) >> 3, "little")
    if stride < 8:
        # Output byte i takes the compacted halves of bytes 2i and 2i+1;
        # OR of the two translated streams never carries.
        lo_low, lo_high, hi_low, hi_high = _COMPACT[stride]
        even, odd = raw[0::2], raw[1::2]
        return (int.from_bytes(even.translate(lo_low), "little")
                | int.from_bytes(odd.translate(lo_high), "little"),
                int.from_bytes(even.translate(hi_low), "little")
                | int.from_bytes(odd.translate(hi_high), "little"))
    block = stride >> 3
    if block <= 8:
        view = memoryview(raw).cast(_BLOCK_FORMAT[block])
        return (int.from_bytes(view[0::2].tobytes(), "little"),
                int.from_bytes(view[1::2].tobytes(), "little"))
    # Blocks past one word: join the byte slices (at most 2**16 bits,
    # so at most 256 block pairs).
    step = block << 1
    return (int.from_bytes(b"".join([raw[i:i + block] for i in
                                     range(0, len(raw), step)]), "little"),
            int.from_bytes(b"".join([raw[i:i + block] for i in
                                     range(block, len(raw), step)]),
                           "little"))


#: ``(nvars, axis) -> `` selector mask of the entries with ``x_axis = 0``.
_SEL_CACHE: Dict[Tuple[int, int], int] = {}


def sel0(nvars: int, axis: int) -> int:
    """Mask selecting the table entries where variable ``axis`` is 0."""
    sel = _SEL_CACHE.get((nvars, axis))
    if sel is None:
        stride = 1 << (nvars - 1 - axis)
        period = stride << 1
        reps = (1 << nvars) // period
        block = (1 << stride) - 1
        # Repeat `block` every `period` bits, `reps` times (repunit).
        sel = block * (((1 << (period * reps)) - 1) // ((1 << period) - 1))
        _SEL_CACHE[(nvars, axis)] = sel
    return sel


__all__ = ["sel0", "split_int"]
