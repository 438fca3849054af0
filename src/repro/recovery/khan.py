"""Khan's algorithm [Khan et al., FAST'12] — the state-of-the-art baseline.

Finds a recovery scheme with the minimal total number of elements read,
without regard to how those reads distribute over disks.  Ties between
minimal-read schemes are broken arbitrarily by search pop order, matching the
paper's observation that "Khan's algorithm has not indicated which recovery
scheme ... should be chosen in case of a tie" (Sec. II-B); like the paper's
own evaluation we therefore take "the first searched suitable recovery scheme
with minimal amount of read data" (Sec. V-A).
"""

from __future__ import annotations

from typing import Optional

from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import generate_scheme, khan_cost


def khan_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Minimal-total-read scheme for a single failed disk."""
    failed_mask = code.layout.disk_mask(failed_disk)
    return khan_scheme_for_mask(code, failed_mask, depth, max_expansions)


def khan_scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Minimal-total-read scheme for an arbitrary failed-element set."""
    rec_eqs = get_recovery_equations(
        code, failed_mask, depth=depth, ensure_complete=True
    )
    return generate_scheme(
        rec_eqs,
        khan_cost(code.layout),
        algorithm="khan",
        max_expansions=max_expansions,
    )
