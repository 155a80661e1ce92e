"""Packed truth tables: 64 minterms per ``numpy.uint64`` word.

Tables follow the package-wide MSB-first convention (entry ``k`` has the
first variable as the most significant bit of ``k``); within the packed
form, minterm ``k`` lives in bit ``k % 64`` of word ``k // 64``
(little-endian bit order), so the pure-Python cross-check in
:func:`repro.boolfunc.truthtable.pack64` produces identical words.

Two packed flavours are used:

* ``numpy`` word arrays (:func:`pack_bools` / :func:`pack_rows`) for the
  bulk slicing the cofactor extraction does;
* arbitrary-precision *mask integers* (:func:`mask_rows` /
  :func:`mask_to_bools` / :func:`split_int`) — the kernel's mask form —
  for the per-vertex ``(lo, hi)`` interval algebra of the clique cover,
  the symmetry predicates and the DSD splits, where CPython's C-level
  bignum AND/OR beats per-call numpy overhead on the tiny tables
  involved.

:class:`Bits` wraps the word-array form with set-algebra operators for
tests and benchmarks.
"""

from __future__ import annotations

from typing import List

import numpy as np

_BYTE_SHIFTS = np.arange(8, dtype=np.uint64) * np.uint64(8)


def pack_bools(arr) -> np.ndarray:
    """Pack a 1-D boolean table into ``uint64`` words (zero-padded)."""
    arr = np.asarray(arr, dtype=np.uint8).reshape(-1)
    nwords = max(1, (arr.size + 63) >> 6)
    packed = np.packbits(arr, bitorder="little")
    buf = np.zeros(nwords * 8, dtype=np.uint8)
    buf[:packed.size] = packed
    # Combine bytes explicitly (shift + OR) so the result is independent
    # of the platform's endianness, unlike a raw uint8->uint64 view.
    return np.bitwise_or.reduce(
        buf.reshape(nwords, 8).astype(np.uint64) << _BYTE_SHIFTS, axis=1)


def pack_rows(rows) -> np.ndarray:
    """Pack a ``(r, c)`` boolean matrix row-wise into ``(r, words)``."""
    rows = np.asarray(rows, dtype=np.uint8)
    nrows, ncols = rows.shape
    nwords = max(1, (ncols + 63) >> 6)
    packed = np.packbits(rows, axis=1, bitorder="little")
    buf = np.zeros((nrows, nwords * 8), dtype=np.uint8)
    buf[:, :packed.shape[1]] = packed
    return np.bitwise_or.reduce(
        buf.reshape(nrows, nwords, 8).astype(np.uint64) << _BYTE_SHIFTS,
        axis=2)


def unpack_words(words, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bools`: the first ``nbits`` as booleans."""
    words = np.asarray(words, dtype=np.uint64).reshape(-1)
    by = ((words[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(np.uint8)
    return np.unpackbits(by.reshape(-1), bitorder="little")[:nbits] \
        .astype(bool)


def popcount_words(words) -> int:
    """Total number of set bits across a word array."""
    words = np.asarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return int(np.bitwise_count(words).sum())
    return int(unpack_words(words, words.size * 64).sum())


def mask_rows(rows) -> List[int]:
    """Pack each row of a boolean matrix into one Python mask integer.

    Bit ``k`` of the mask is entry ``k`` of the row — the same bit
    order as :func:`pack_bools`, just materialised as a bignum.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    packed = np.packbits(rows, axis=1, bitorder="little")
    data = packed.tobytes()
    step = packed.shape[1]
    return [int.from_bytes(data[i * step:(i + 1) * step], "little")
            for i in range(packed.shape[0])]


def mask_to_bools(mask: int, nbits: int) -> np.ndarray:
    """Inverse of one :func:`mask_rows` row: a boolean array of ``nbits``."""
    nbytes = max(1, (nbits + 7) >> 3)
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:nbits].astype(bool)


def split_int(mask: int, nbits: int, stride: int) -> tuple:
    """Cofactor halves of a packed table along one variable axis.

    ``stride`` is the variable's bit stride in the table (``2**k`` for
    the ``k``-th axis from the right, MSB-first layout): entries come in
    alternating blocks of ``stride`` bits with the variable 0 then 1.
    Returns ``(mask0, mask1)``, each compacted to ``nbits // 2`` —
    exactly the tables a fresh extraction over the reduced variable
    tuple would produce.
    """
    # Round-trip through numpy: gathering alternating stride-blocks of a
    # bignum has no O(n) pure-Python form, and the tables are tiny
    # (<= 2**16 bits), so pack/unpack cost is negligible.
    nbytes = max(1, (nbits + 7) >> 3)
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    arr = np.unpackbits(raw, bitorder="little")[:nbits].reshape(-1, 2, stride)
    lo = np.packbits(arr[:, 0, :].reshape(-1), bitorder="little")
    hi = np.packbits(arr[:, 1, :].reshape(-1), bitorder="little")
    return (int.from_bytes(lo.tobytes(), "little"),
            int.from_bytes(hi.tobytes(), "little"))


class Bits:
    """A truth table packed into ``uint64`` words, with set algebra.

    Bits beyond ``nbits`` in the last word are kept at zero (the
    operators preserve this, :meth:`invert` masks the tail), so
    :meth:`key` is a canonical byte string: equal tables, equal keys.
    """

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int, words: np.ndarray) -> None:
        self.nbits = nbits
        self.words = words

    @classmethod
    def from_bools(cls, arr) -> "Bits":
        arr = np.asarray(arr, dtype=bool).reshape(-1)
        return cls(arr.size, pack_bools(arr))

    def to_bools(self) -> np.ndarray:
        return unpack_words(self.words, self.nbits)

    def _tail_mask(self) -> np.ndarray:
        mask = np.full(self.words.shape, np.uint64(0xFFFFFFFFFFFFFFFF))
        tail = self.nbits & 63
        if tail:
            mask[-1] = np.uint64((1 << tail) - 1)
        return mask

    def __and__(self, other: "Bits") -> "Bits":
        return Bits(self.nbits, self.words & other.words)

    def __or__(self, other: "Bits") -> "Bits":
        return Bits(self.nbits, self.words | other.words)

    def invert(self) -> "Bits":
        return Bits(self.nbits, ~self.words & self._tail_mask())

    def subset_of(self, other: "Bits") -> bool:
        return not np.any(self.words & ~other.words)

    def is_zero(self) -> bool:
        return not self.words.any()

    def popcount(self) -> int:
        return popcount_words(self.words)

    def key(self) -> bytes:
        return self.words.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bits):
            return NotImplemented
        return self.nbits == other.nbits and \
            bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return hash((self.nbits, self.key()))

    def __repr__(self) -> str:
        return f"<Bits nbits={self.nbits} popcount={self.popcount()}>"
