"""The naive degraded recovery scheme (Sec. II-B).

"Utilize the first parity disk and all the surviving user data elements to
recover elements in the failed disk" — i.e. recover each failed element from
a single original calculation equation, preferring the first parity group's
equations.  This is what a plain RAID controller does and is the baseline
every optimized scheme is measured against.
"""

from __future__ import annotations

from typing import List, Optional

from repro.codes.base import ErasureCode
from repro.recovery.scheme import RecoveryScheme


def naive_scheme(code: ErasureCode, failed_disk: int) -> RecoveryScheme:
    """Depth-1 recovery from original equations, first parity group first."""
    return naive_scheme_for_mask(code, code.layout.disk_mask(failed_disk))


def naive_scheme_for_mask(
    code: ErasureCode, failed_mask: int, failed_disk: Optional[int] = None
) -> RecoveryScheme:
    """Naive recovery of an arbitrary failed-element set.

    Processes failed elements in ascending order; each must appear in some
    original equation whose other failed members are already recovered.
    Raises :class:`ValueError` when single-equation recovery is impossible
    (e.g. two failed elements sharing every equation) — the naive scheme
    simply does not exist then.  ``failed_disk`` is ignored; it keeps the
    signature of :func:`~repro.recovery.conventional.conventional_scheme_for_mask`.
    """
    lay = code.layout
    failed_eids = sorted(
        d * lay.k_rows + r for d, r in lay.iter_elements(failed_mask)
    )
    originals = code.parity_equations()
    equations: List[int] = []
    read_mask = 0
    recovered = 0
    for f in failed_eids:
        fbit = 1 << f
        chosen = None
        for eq in originals:
            if eq & fbit and not (eq & failed_mask & ~(recovered | fbit)):
                chosen = eq
                break
        if chosen is None:
            raise ValueError(
                f"no single original equation recovers element {f}; "
                "use the search-based generators"
            )
        equations.append(chosen)
        read_mask |= chosen & ~failed_mask
        recovered |= fbit
    return RecoveryScheme(
        layout=lay,
        failed_mask=failed_mask,
        failed_eids=failed_eids,
        equations=equations,
        read_mask=read_mask,
        algorithm="naive",
    )
