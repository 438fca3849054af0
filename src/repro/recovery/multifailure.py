"""Arbitrary failure situations (paper Sec. V-D).

The failed-element set need not be a single disk: bursts of multiple whole
disks (in codes tolerating them), latent sector errors, undetected disk
errors, and combinations thereof all reduce to "recover this element mask".
The U-Algorithm applies unchanged; the recoverability judgement the paper
describes ("if we have traversed all states ... and found no one could
recover all the failed elements") is performed up front via the rank test,
which is cheaper and exact.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import generate_scheme
from repro.recovery.ualgorithm import search_key


class UnrecoverableError(ValueError):
    """The failure situation exceeds what the code can correct."""


def recover_failure(
    code: ErasureCode,
    failed_mask: int,
    algorithm: str = "u",
    depth: int = 2,
    max_depth: int = 4,
    weights: Optional[Sequence[float]] = None,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Generate a recovery scheme for an arbitrary failed-element mask.

    Checks recoverability first, then escalates the equation-combination
    depth from ``depth`` to ``max_depth`` until every failed element has at
    least one recovery equation (multi-disk failures in high-tolerance codes
    sometimes need substituted equations that only appear at higher depth).

    Parameters
    ----------
    algorithm:
        ``"khan"``, ``"c"`` or ``"u"``.
    weights:
        Optional per-disk read costs; ``"u"`` only (any other name raises
        :class:`ValueError`).
    """
    if failed_mask == 0:
        raise ValueError("failed_mask is empty")
    if not code.is_recoverable(failed_mask):
        raise UnrecoverableError(
            f"failure mask {failed_mask:#x} is not recoverable by {code.name}"
        )
    cost, label = search_key(algorithm, code.layout, weights)
    for d in range(depth, max_depth + 1):
        rec_eqs = get_recovery_equations(code, failed_mask, depth=d)
        if rec_eqs.is_complete():
            break
    else:
        # deep substitution chains: complete the option sets with Gaussian
        # decoding equations rather than exploding the combination depth
        rec_eqs = get_recovery_equations(
            code, failed_mask, depth=max_depth, ensure_complete=True
        )
    return generate_scheme(
        rec_eqs, cost, algorithm=label, max_expansions=max_expansions
    )
