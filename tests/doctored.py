"""Doctored recovery schemes for the rebuild engines' dead-role guard.

Both engines read survivors in place, where the dead role's rows are still
addressable; :func:`repro.codec.batch.check_plan` must refuse a plan that
reads one of them, or whose ``loads`` (the billed quantity) disagree with
what it reads.  These helpers build such plans from a real one.
"""

from repro.recovery import RecoveryPlanner, RecoveryScheme


class FixedPlanner:
    """Serves one doctored scheme for ``role``, real schemes elsewhere."""

    plan_cache = None

    def __init__(self, code, role, scheme):
        self.real = RecoveryPlanner(code, "u", depth=1)
        self.role = role
        self.scheme = scheme

    def scheme_for_disk(self, disk):
        return self.scheme if disk == self.role else self.real.scheme_for_disk(disk)


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
