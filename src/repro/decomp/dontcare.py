"""The paper's three-step don't-care assignment (Section 5).

1. :func:`assign_step1_symmetry` — before a bound set is chosen, assign
   don't cares to maximise symmetries (delegates to
   :mod:`repro.symmetry`); symmetries reduce ``ncc`` in the current step
   *and* are inherited by strict decomposition functions, so the gain
   propagates through the recursion.
2. :func:`assign_step2_sharing` — given the bound set, minimise the lower
   bound ``ceil(log2(ncc_joint))`` on the total number of decomposition
   functions: compute the *joint* compatible classes (all outputs at
   once, a clique cover) and narrow every vertex cofactor to its class's
   merged interval.  This maximises the potential for common
   decomposition functions.
3. :func:`assign_step3_single` — per output, merge that output's
   remaining compatible classes (the Chang/Marek-Sadowska method) and
   narrow accordingly, minimising ``r_i`` for the current step.

The steps are compatible: each is a pure interval narrowing, step 2's
merged vertices have *equal* cofactor vectors afterwards and equal
vectors are never separated by the class computation again, so step 3
cannot increase the step-2 lower bound.  Step 1's strong symmetries
survive steps 2/3 whenever each symmetry group lies entirely inside the
bound set or entirely inside the free set (the paper's condition), which
the bound-set search maintains.

All three steps ride the word-parallel kernel transparently when the
functions fit (:mod:`repro.kernel`): step 1 through the symmetry ops
adapter in :mod:`repro.symmetry.groups`, steps 2/3 through the class
computation in :mod:`repro.decomp.compat`.

A decomposition step needs only the classes steps 2 and 3 settle on,
not the narrowed outputs: composition building reads each class's
merged interval.  :func:`dc_step_classes` returns just those classes.
When the kernel built step 2's joint classes, step 3 covers each
output's column of their merged mask rows
(:meth:`repro.decomp.compat.LazyClasses.single_classes`) and no output
is lowered to a BDD; otherwise it narrows through the BDD path and
classes each narrowed output, the reference the kernel route equals
bit for bit.  :func:`assign_step2_sharing` and
:func:`assign_step3_single` build the narrowed outputs themselves, on
the BDD path, for the step-ablation flags and for callers that want
them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.bdd.manager import BDD
from repro.boolfunc.spec import ISF
from repro.decomp.compat import (
    Classes,
    LazyClasses,
    assign_by_classes,
    classes_for,
)
from repro.obs.profiler import profile_phase
from repro.symmetry.groups import assign_for_symmetry_multi


def assign_step1_symmetry(bdd: BDD, outputs: Sequence[ISF],
                          variables: Sequence[int]
                          ) -> Tuple[List[ISF], List[List[int]]]:
    """Step 1: symmetry-maximising assignment (before bound-set choice).

    Returns the narrowed outputs and the common symmetry groups that seed
    the bound-set search.
    """
    return assign_for_symmetry_multi(bdd, outputs, variables)


def assign_step2_sharing(bdd: BDD, outputs: Sequence[ISF],
                         bound: Sequence[int]
                         ) -> Tuple[List[ISF], Classes]:
    """Step 2: minimise the lower bound on the *total* number of
    decomposition functions via the joint compatible classes.

    Returns the narrowed outputs and the joint classes (whose ``min_r``
    is the lower bound ``ceil(log2(ncc(f, B)))`` of the paper).
    """
    with profile_phase("dc_step2_sharing"):
        joint = classes_for(bdd, outputs, bound)
        narrowed = assign_by_classes(bdd, outputs, joint)
        return narrowed, joint


def assign_step3_single(bdd: BDD, outputs: Sequence[ISF],
                        bound: Sequence[int]
                        ) -> Tuple[List[ISF], List[Classes]]:
    """Step 3: per-output class merging (Chang/Marek-Sadowska).

    Returns the narrowed outputs and each output's final classes — the
    classes the encoding and common-alpha selection work with.
    """
    with profile_phase("dc_step3_single"):
        narrowed: List[ISF] = []
        all_classes: List[Classes] = []
        for isf in outputs:
            classes = classes_for(bdd, [isf], bound)
            [new_isf] = assign_by_classes(bdd, [isf], classes)
            narrowed.append(new_isf)
            all_classes.append(classes)
        return narrowed, all_classes


def dc_step_classes(bdd: BDD, outputs: Sequence[ISF],
                    bound: Sequence[int]) -> Tuple[Classes, List[Classes]]:
    """Steps 2 and 3's classes without their narrowed outputs.

    Returns the joint classes of step 2 and each output's classes of
    step 3 — the ``joint`` of :func:`assign_step2_sharing` and the
    classes of :func:`assign_step3_single` run on its narrowed outputs,
    bit for bit.
    """
    with profile_phase("dc_step2_sharing"):
        joint = classes_for(bdd, outputs, bound)
        chained = isinstance(joint, LazyClasses)
        if not chained:
            narrowed = assign_by_classes(bdd, outputs, joint)
    with profile_phase("dc_step3_single"):
        if chained:
            return joint, joint.single_classes()
        return joint, [classes_for(bdd, [isf], bound) for isf in narrowed]


def assign_all_steps(bdd: BDD, outputs: Sequence[ISF],
                     bound: Sequence[int]
                     ) -> Tuple[List[ISF], List[Classes], Classes]:
    """Steps 2 and 3 back to back (step 1 runs before bound selection).

    Returns the final outputs, the per-output classes, and the joint
    classes from step 2 (for reporting the lower bound).
    """
    outputs, joint = assign_step2_sharing(bdd, outputs, bound)
    outputs, per_output = assign_step3_single(bdd, outputs, bound)
    return outputs, per_output, joint
