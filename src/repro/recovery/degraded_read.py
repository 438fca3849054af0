"""Degraded reads: serving user I/O that touches lost elements.

Between failure detection and rebuild completion, reads addressed to the
failed disk must be reconstructed on the fly (Khan et al.'s second use case
and the reason the paper excludes write-back from recovery time: degraded
service quality is what matters during the window of vulnerability).

A degraded read targets a *subset* of the failed disk's elements — usually
one or a few rows — so its plan differs from whole-disk recovery: only the
requested elements (plus whatever intermediate failed elements the chosen
equations consume) need recovering.  We plan it as a failure mask containing
exactly the requested elements and cost it with the algorithm's key (U by
default, and for a baseline), minimizing the most-loaded disk touched by
this single request.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import generate_scheme
from repro.recovery.ualgorithm import search_key


def degraded_read_scheme(
    code: ErasureCode,
    failed_disk: int,
    rows: Iterable[int],
    algorithm: str = "u",
    depth: int = 2,
    max_expansions: Optional[int] = 200_000,
) -> RecoveryScheme:
    """Plan the reads needed to serve ``rows`` of a failed disk.

    The plan recovers exactly the requested elements; surviving elements of
    the same disk are read directly by the caller, and *other* rows of the
    failed disk are treated as surviving-but-unreadable (they never appear
    in the read set).
    """
    lay = code.layout
    cost, label = search_key(algorithm, lay, baselines=True)
    rows = sorted(set(rows))
    if not rows:
        raise ValueError("no rows requested")
    target_mask = 0
    for row in rows:
        target_mask |= 1 << lay.eid(failed_disk, row)

    # Equations may not touch the failed disk's un-requested elements: they
    # are lost too.  Enumerate against the whole-disk failure mask but keep
    # only the requested elements as recovery targets, letting equations use
    # earlier *requested* elements (standard iteration).
    disk_mask = lay.disk_mask(failed_disk)
    rec_eqs = get_recovery_equations(
        code, disk_mask, depth=depth, ensure_complete=True
    )
    keep = [
        i for i, f in enumerate(rec_eqs.failed_eids) if (target_mask >> f) & 1
    ]
    # options for a kept slot may reference earlier failed elements that we
    # are NOT recovering — drop those options
    recovered_before = {}
    allowed = 0
    for i in keep:
        f = rec_eqs.failed_eids[i]
        recovered_before[i] = allowed
        allowed |= 1 << f
    pruned_options = []
    for i in keep:
        f = rec_eqs.failed_eids[i]
        fbit = 1 << f
        ok = [
            opt
            for opt in rec_eqs.options[i]
            if not (opt.equation & disk_mask & ~(recovered_before[i] | fbit))
        ]
        pruned_options.append(ok)
    rec_eqs.failed_eids = [rec_eqs.failed_eids[i] for i in keep]
    rec_eqs.options = pruned_options
    rec_eqs.failed_mask = target_mask

    return generate_scheme(
        rec_eqs, cost, algorithm=f"degraded_{label}", max_expansions=max_expansions
    )


def slice_degraded_plan(
    disk_scheme: RecoveryScheme, rows: Iterable[int]
) -> RecoveryScheme:
    """Derive a degraded-read plan for ``rows`` from a whole-disk scheme.

    The whole-disk scheme already carries one calculation equation per
    failed element in a valid recovery order, so the plan for any row
    subset is the transitive closure of the requested elements under
    "equation ``i`` consumes earlier-recovered failed elements" — no
    search, no enumeration, just bitmask chasing.  The sliced plan's
    equations are taken verbatim from the disk scheme, so it is correct by
    construction wherever the disk scheme is.

    Unlike :func:`degraded_read_scheme` (a dedicated search minimizing the
    max load of this one request) the sliced plan may read a little more —
    it pays that for costing *zero* search effort, which is what a serving
    hot path needs.
    """
    lay = disk_scheme.layout
    rows = sorted(set(rows))
    if not rows:
        raise ValueError("no rows requested")
    disks = {lay.disk_of(f) for f in disk_scheme.failed_eids}
    if len(disks) != 1:
        raise ValueError("slice_degraded_plan needs a single-disk scheme")
    disk = disks.pop()
    if disk_scheme.failed_mask != lay.disk_mask(disk):
        raise ValueError(
            "slice_degraded_plan needs a whole-disk scheme "
            f"(got failure mask {disk_scheme.failed_mask:#x})"
        )
    for row in rows:
        if not 0 <= row < lay.k_rows:
            raise IndexError(f"row {row} out of range")

    eq_of = dict(zip(disk_scheme.failed_eids, disk_scheme.equations))
    needed = set()
    stack = [lay.eid(disk, row) for row in rows]
    while stack:
        f = stack.pop()
        if f in needed:
            continue
        needed.add(f)
        deps = eq_of[f] & disk_scheme.failed_mask & ~(1 << f)
        while deps:
            low = deps & -deps
            stack.append(low.bit_length() - 1)
            deps ^= low
    # the disk scheme's recovery order restricted to the needed elements is
    # itself a valid recovery order (dependencies always come earlier)
    order = [f for f in disk_scheme.failed_eids if f in needed]
    new_mask = 0
    for f in order:
        new_mask |= 1 << f
    equations = [eq_of[f] for f in order]
    read_mask = 0
    for eq in equations:
        read_mask |= eq & ~new_mask
    return RecoveryScheme(
        layout=lay,
        failed_mask=new_mask,
        failed_eids=order,
        equations=equations,
        read_mask=read_mask,
        algorithm=f"{disk_scheme.algorithm}+slice",
        exact=disk_scheme.exact,
        expanded_states=0,
        metadata={"sliced_rows": rows, "sliced_from_disk": disk},
    )


def build_degraded_plans(
    code: ErasureCode,
    failed_disk: int,
    algorithm: str = "u",
    depth: int = 2,
    planner: Optional[RecoveryPlanner] = None,
) -> Dict[int, RecoveryScheme]:
    """One degraded-read plan per row of the failed disk.

    This is the lookup table the on-line service path needs (see
    :meth:`repro.disksim.events.EventDrivenArray.run_online_recovery`):
    a user read of row ``r`` on the failed disk executes ``plans[r]``.

    The whole-disk scheme is searched **once** per disk (through
    ``planner``, which may be backed by a persistent plan cache) and every
    per-row plan is sliced out of it via :func:`slice_degraded_plan` —
    building the table costs one search, not ``k_rows`` searches.
    """
    if planner is None:
        planner = RecoveryPlanner(code, algorithm=algorithm, depth=depth)
    disk_scheme = planner.scheme_for_disk(failed_disk)
    return {
        row: slice_degraded_plan(disk_scheme, [row])
        for row in range(code.layout.k_rows)
    }
