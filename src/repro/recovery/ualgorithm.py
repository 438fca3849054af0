"""U-Algorithm (Sec. IV): unconditional load balance.

Minimize the read load of the most loaded disk outright — even if that means
reading more data in total — then, among ties, read the minimal total
(Sec. IV-B's revision of Algorithm 1).  The paper's bucketed ``rec_list[r]``
traversal in ascending max-column-load order is uniform-cost search on the
lexicographic key ``(max_load, total)``; the pure-Python engine's binary heap
plays the role of the sublists, and the compiled kernel keeps them as one
FIFO bucket per key.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import generate_scheme, unconditional_cost, weighted_cost


def u_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """U-Scheme for a single failed disk."""
    return u_scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), depth, max_expansions
    )


def u_scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
    weights: Optional[Sequence[float]] = None,
) -> RecoveryScheme:
    """U-Scheme for an arbitrary failed-element set.

    With ``weights`` given, runs the heterogeneous-environment variant of
    Sec. V-D: the key becomes the maximal per-disk read *cost* (load times
    the disk's weight); uniform weights of 1 recover the plain U-Algorithm.
    """
    rec_eqs = get_recovery_equations(
        code, failed_mask, depth=depth, ensure_complete=True
    )
    if weights is None:
        cost = unconditional_cost(code.layout)
        label = "u"
    else:
        cost = weighted_cost(code.layout, weights)
        label = "u_weighted"
    return generate_scheme(
        rec_eqs, cost, algorithm=label, max_expansions=max_expansions
    )
