"""Doctored recovery schemes for the dead-role guard.

The rebuild and the serving shards read survivors in place, where the dead
role's rows are still addressable; :func:`repro.codec.batch.check_plan`
must refuse a plan that reads one of them, or whose ``loads`` (the billed
quantity) disagree with what it reads.  These helpers build such plans
from a real one.
"""

from repro.recovery import RecoveryPlanner, RecoveryScheme
from repro.recovery.degraded_read import slice_degraded_plan
from repro.serving import DegradedPlanCache


class FixedPlanner:
    """Serves one doctored scheme for ``role``, real schemes elsewhere."""

    plan_cache = None

    def __init__(self, code, role, scheme):
        self.real = RecoveryPlanner(code, "u", depth=1)
        self.role = role
        self.scheme = scheme

    def scheme_for_disk(self, disk):
        return self.scheme if disk == self.role else self.real.scheme_for_disk(disk)


class FixedRowPlans:
    """Serves one doctored degraded-read plan for ``(role, row)``, real
    per-row plans elsewhere (a stand-in for a shard's ``plans``)."""

    def __init__(self, code, role, row, plan):
        self.real = DegradedPlanCache(code)
        self.key = (role, row)
        self.plan = plan

    def plan_for_element(self, disk, row):
        if (disk, row) == self.key:
            return self.plan
        return self.real.plan_for_element(disk, row)


def row_plan_reading_dead_row(disk_scheme: RecoveryScheme, role: int):
    """``(plan, row, dead_row)``: the degraded-read plan of ``row`` of the
    dead ``role``, sliced from ``disk_scheme``, that reads another row of
    the role, element ``dead_row``, as a survivor instead of rebuilding it.

    ``row`` is the first row whose sliced plan depends on another row; the
    last such dependency is dropped from the failed set, so the equation
    that consumed it now reads it in place.
    """
    lay = disk_scheme.layout
    for row in range(lay.k_rows):
        real = slice_degraded_plan(disk_scheme, [row])
        deps = [f for f in real.failed_eids if f != lay.eid(role, row)]
        if deps:
            break
    else:
        raise ValueError(f"no row plan of role {role} depends on another row")
    dead_row = deps[-1]
    keep = [i for i, f in enumerate(real.failed_eids) if f != dead_row]
    failed_mask = real.failed_mask & ~(1 << dead_row)
    eqs = [real.equations[i] for i in keep]
    read_mask = 0
    for eq in eqs:
        read_mask |= eq & ~failed_mask
    assert (read_mask >> dead_row) & 1
    plan = RecoveryScheme(
        layout=lay,
        failed_mask=failed_mask,
        failed_eids=[real.failed_eids[i] for i in keep],
        equations=eqs,
        read_mask=read_mask,
    )
    return plan, row, dead_row


def scheme_reading_dead_row(real: RecoveryScheme, role: int):
    """``(scheme, dead_row)``: ``real`` with its last dead row read as a
    survivor.

    The row is dropped from the failed set and its equation folded into
    the first one, so the plan reads it instead of rebuilding it.
    """
    k = real.layout.k_rows
    dead_row = role * k + k - 1
    keep = [i for i, f in enumerate(real.failed_eids) if f != dead_row]
    last = real.failed_eids.index(dead_row)
    eqs = [real.equations[i] for i in keep]
    eqs[0] ^= real.equations[last]
    failed_mask = real.failed_mask & ~(1 << dead_row)
    read_mask = 0
    for eq in eqs:
        read_mask |= eq & ~failed_mask
    assert (read_mask >> dead_row) & 1
    scheme = RecoveryScheme(
        layout=real.layout,
        failed_mask=failed_mask,
        failed_eids=[real.failed_eids[i] for i in keep],
        equations=eqs,
        read_mask=read_mask,
    )
    return scheme, dead_row


def scheme_misstating_loads(real: RecoveryScheme):
    """``(scheme, logical)``: ``real`` whose ``read_mask`` (hence ``loads``)
    claims one element of logical disk ``logical`` it never reads."""
    k = real.layout.k_rows
    unread = next(
        e for e in range(k, real.layout.n_elements)
        if not (real.read_mask >> e) & 1
    )
    scheme = RecoveryScheme(
        layout=real.layout,
        failed_mask=real.failed_mask,
        failed_eids=list(real.failed_eids),
        equations=list(real.equations),
        read_mask=real.read_mask | (1 << unread),
    )
    return scheme, unread // k
