"""Common decomposition functions for multi-output decomposition.

Following Scholl/Molitor (ASP-DAC'97), the search for shared
decomposition functions is restricted to *strict* functions — functions
constant on each compatible class of the output that uses them.  Under
the paper's side condition ``r_i = ceil(log2(ncc_i))`` we minimise the
size of the union of all outputs' decomposition-function sets with a
greedy reuse heuristic:

1. outputs are processed in order of decreasing ``ncc`` (the hardest
   output seeds the pool);
2. for the current output, already-selected alphas are reused whenever
   they are strict for it *and* keep the encoding feasible (after
   accepting an alpha with ``m`` bits still to assign, no group of
   not-yet-distinguished classes may exceed ``2**m``);
3. missing distinguishing power is supplied by fresh alphas built from
   the within-group class indices; fresh alphas are normalised and
   deduplicated against the pool.

The selection runs on vertex bitmasks: each class is the mask of its
bound-set vertices (bit ``v`` = vertex ``v``) and each pool alpha the
mask of the vertices where it is 1.  An alpha ``a`` is strict for a
class ``m`` iff ``a & m`` is ``0`` or ``m``; its values on an output's
classes form one int over the class ids; a fresh alpha is the OR of
the classes whose within-group index has its bit set, normalised by
complementing when vertex 0 is set; and the pool deduplicates by mask.
The pool is handed out as :class:`~repro.decomp.encoding.AlphaFunction`
value vectors, and :func:`~repro.decomp.encoding.encode_output`
validates every output's encoding on them.

The result is one :class:`~repro.decomp.encoding.OutputEncoding` per
output over a shared alpha list whose length ``r`` satisfies
``max_i r_i <= r <= sum_i r_i`` — with equality at the lower end exactly
when the outputs can share everything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd.manager import BDD
from repro.decomp.compat import Classes, min_r
from repro.decomp.encoding import AlphaFunction, OutputEncoding, encode_output


def _class_masks(classes: Classes) -> List[int]:
    """Each class as the bitmask of its bound-set vertices."""
    masks = []
    for members in classes.classes:
        mask = 0
        for v in members:
            mask |= 1 << v
        masks.append(mask)
    return masks


def _class_values(alpha: int, class_masks: Sequence[int]) -> Optional[int]:
    """The alpha's value on each class as a bitmask over class ids, or
    ``None`` when the alpha is not strict (not constant on some
    class)."""
    values = 0
    for c, mask in enumerate(class_masks):
        hit = alpha & mask
        if hit:
            if hit != mask:
                return None
            values |= 1 << c
    return values


def _refine_groups(groups: List[List[int]],
                   class_values: int) -> List[List[int]]:
    """Split each group of class ids by the alpha's class values (bit
    ``c`` of ``class_values`` is its value on class ``c``)."""
    refined: List[List[int]] = []
    for group in groups:
        zeros = [c for c in group if not class_values >> c & 1]
        ones = [c for c in group if class_values >> c & 1]
        if zeros:
            refined.append(zeros)
        if ones:
            refined.append(ones)
    return refined


def _encode_within_groups(num_vertices: int, class_masks: Sequence[int],
                          groups: List[List[int]],
                          bits: int) -> List[int]:
    """Fresh alphas (normalised vertex masks) giving classes distinct
    within-group codes.

    Every group has at most ``2**bits`` members, so assigning each class
    its index within its group (in ``bits`` bits) completes the encoding.
    """
    index_of_class: Dict[int, int] = {}
    for group in groups:
        for idx, c in enumerate(group):
            index_of_class[c] = idx
    full = (1 << num_vertices) - 1
    alphas = []
    for j in range(bits):
        shift = bits - 1 - j
        alpha = 0
        for c, mask in enumerate(class_masks):
            if index_of_class[c] >> shift & 1:
                alpha |= mask
        if alpha & 1:
            alpha ^= full  # polarity normalisation: vertex 0 maps to 0
        alphas.append(alpha)
    return alphas


def select_common_alphas(bdd: BDD, per_output: Sequence[Classes]
                         ) -> Tuple[List[AlphaFunction],
                                    List[OutputEncoding]]:
    """Choose a shared alpha pool and per-output encodings.

    ``per_output[i]`` holds the (final, post-DC-assignment) compatible
    classes of output ``i``.  Returns the pool and one encoding per
    output, in the original output order.
    """
    if not per_output:
        return [], []
    num_vertices = len(per_output[0].class_of)
    pool: List[AlphaFunction] = []
    pool_masks: List[int] = []
    index_of: Dict[int, int] = {}
    encodings: List[OutputEncoding] = [None] * len(per_output)  # type: ignore

    def add(alpha: int) -> int:
        pool.append(AlphaFunction.from_mask(alpha, num_vertices))
        pool_masks.append(alpha)
        index_of.setdefault(alpha, len(pool) - 1)
        return len(pool) - 1

    order = sorted(range(len(per_output)),
                   key=lambda i: (-per_output[i].ncc, i))
    for i in order:
        classes = per_output[i]
        class_masks = _class_masks(classes)
        r_i = min_r(classes.ncc)
        chosen: List[int] = []
        groups: List[List[int]] = [list(range(classes.ncc))]
        # Reuse pass over the existing pool (earliest first — those are
        # the most shared).
        for idx, alpha in enumerate(pool_masks):
            if len(chosen) == r_i:
                break
            if max(len(g) for g in groups) == 1:
                break
            values = _class_values(alpha, class_masks)
            if values is None:
                continue
            refined = _refine_groups(groups, values)
            remaining = r_i - len(chosen) - 1
            if max(len(g) for g in refined) > (1 << remaining):
                continue
            if len(refined) == len(groups):
                continue  # no distinguishing power gained
            chosen.append(idx)
            groups = refined
        # Fresh alphas for what is still ambiguous.  Only as many bits as
        # the largest ambiguous group actually needs (always <= r_i -
        # len(chosen) thanks to the feasibility invariant above).
        max_group = max(len(g) for g in groups)
        if max_group > 1:
            bits = min_r(max_group)
            for alpha in _encode_within_groups(num_vertices, class_masks,
                                               groups, bits):
                existing = index_of.get(alpha)
                if existing is None:
                    existing = add(alpha)
                if existing not in chosen:
                    chosen.append(existing)
        try:
            encodings[i] = encode_output(classes, pool, chosen)
        except ValueError:
            # Extremely defensive fallback: a dedup collision made the
            # encoding non-injective.  Use a private plain binary encoding
            # of the class index for this output (no sharing).
            bits = min_r(classes.ncc)
            private = _encode_within_groups(
                num_vertices, class_masks, [list(range(classes.ncc))], bits)
            chosen = [add(alpha) for alpha in private]
            encodings[i] = encode_output(classes, pool, chosen)
    return pool, encodings


def total_alpha_count(encodings: Sequence[OutputEncoding]) -> int:
    """Size of the union of all outputs' decomposition-function sets."""
    used = set()
    for enc in encodings:
        used.update(enc.alpha_indices)
    return len(used)
