"""C-Algorithm (Sec. III): conditional load balance.

Among all recovery schemes reading the *minimal total* amount of data, pick
one whose most-loaded disk carries the least reads.  Keeps Khan's optimality
on total volume and adds the load-balance tie-break — implemented as UCS on
the lexicographic key ``(total, max_load)``.
"""

from __future__ import annotations

from typing import Optional

from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import conditional_cost, generate_scheme


def c_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """C-Scheme for a single failed disk."""
    return c_scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), depth, max_expansions
    )


def c_scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """C-Scheme for an arbitrary failed-element set."""
    rec_eqs = get_recovery_equations(
        code, failed_mask, depth=depth, ensure_complete=True
    )
    return generate_scheme(
        rec_eqs,
        conditional_cost(code.layout),
        algorithm="c",
        max_expansions=max_expansions,
    )
