"""Small truth-table utilities shared by tests, benches and examples.

Tables follow the package-wide MSB-first convention: for variables
``(v0, v1, .., v{n-1})``, entry ``k`` is the value under the assignment
where ``v0`` receives the most significant bit of ``k``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple


def table_from_int(value: int, nvars: int) -> List[int]:
    """Truth table from an integer bit mask (bit ``k`` = entry ``k``)."""
    size = 1 << nvars
    if value >= 1 << size:
        raise ValueError("mask has more bits than the table")
    return [(value >> k) & 1 for k in range(size)]


def table_to_int(table: Sequence[int]) -> int:
    """Inverse of :func:`table_from_int`."""
    value = 0
    for k, bit in enumerate(table):
        if bit:
            value |= 1 << k
    return value


def table_from_callable(fn: Callable[..., int], nvars: int) -> List[int]:
    """Tabulate a Python predicate over all assignments (MSB first)."""
    out = []
    for k in range(1 << nvars):
        bits = [(k >> (nvars - 1 - i)) & 1 for i in range(nvars)]
        out.append(1 if fn(*bits) else 0)
    return out


def minterms(table: Sequence[int]) -> List[int]:
    """Indices of the onset entries."""
    return [k for k, bit in enumerate(table) if bit]


def cofactor_table(table: Sequence[int], var_index: int,
                   value: int) -> List[int]:
    """Truth table of the cofactor w.r.t. the ``var_index``-th variable."""
    size = len(table)
    nvars = size.bit_length() - 1
    if 1 << nvars != size:
        raise ValueError("table length must be a power of two")
    if not 0 <= var_index < nvars:
        raise ValueError("variable index out of range")
    out = []
    for k in range(size):
        if ((k >> (nvars - 1 - var_index)) & 1) == value:
            out.append(table[k])
    return out


def format_table(table: Sequence[int],
                 names: Optional[Sequence[str]] = None) -> str:
    """Human-readable truth table (one row per assignment)."""
    size = len(table)
    nvars = size.bit_length() - 1
    names = list(names) if names else [f"x{i}" for i in range(nvars)]
    header = " ".join(names) + " | f"
    lines = [header, "-" * len(header)]
    for k in range(size):
        bits = " ".join(
            str((k >> (nvars - 1 - i)) & 1) for i in range(nvars))
        lines.append(f"{bits} | {table[k]}")
    return "\n".join(lines)


def iter_assignments(nvars: int) -> Iterator[Tuple[int, ...]]:
    """All assignments in table order (MSB first)."""
    for k in range(1 << nvars):
        yield tuple((k >> (nvars - 1 - i)) & 1 for i in range(nvars))


def pack64(table: Sequence[int]) -> List[int]:
    """Pack a 0/1 table into 64-bit words, minterm ``k`` at word
    ``k // 64``, bit ``k % 64``.

    Pure-Python reference for the mask layout used by
    :mod:`repro.kernel.bitset` — a kernel mask read 64 bits at a time
    must be exactly these words, and the kernel tests pin that with
    this function.  Tables shorter than a multiple of 64 are
    zero-padded in the final word.
    """
    words = [0] * ((len(table) + 63) // 64)
    for k, bit in enumerate(table):
        if bit:
            words[k >> 6] |= 1 << (k & 63)
    return words


def unpack64(words: Sequence[int], nbits: int) -> List[int]:
    """Inverse of :func:`pack64` for the first ``nbits`` minterms."""
    if nbits > 64 * len(words):
        raise ValueError("nbits exceeds the packed capacity")
    return [(words[k >> 6] >> (k & 63)) & 1 for k in range(nbits)]
