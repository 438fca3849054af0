"""Greedy scheme generation — a fast, approximate alternative.

The exact generators are exponential-time searches (the problem is NP-hard,
paper Sec. II-B).  For very wide arrays, or when schemes must be produced
on-line (e.g. ad-hoc failure masks in the degraded-read path), a one-pass
greedy that picks, slot by slot, the equation minimizing the incremental
cost key is often good enough: on the paper's code suite it lands within
one unit of the optimal max load (see ``benchmarks/bench_ablation_greedy``)
at a tiny fraction of the cost.

The greedy additionally runs ``restarts`` passes over rotated slot orders —
the fixed ascending order is occasionally unlucky, and scheme quality is
order-sensitive once equations may reference earlier-recovered elements.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.codes.base import ErasureCode
from repro.equations.enumerate import RecoveryEquations, get_recovery_equations
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import CostFn
from repro.recovery.ualgorithm import search_key


def _greedy_pass(
    rec_eqs: RecoveryEquations, cost_fn: CostFn
) -> Tuple[Tuple, List[int], int]:
    """One greedy sweep in the fixed slot order; returns (key, eqs, mask)."""
    mask = 0
    chosen: List[int] = []
    for opts in rec_eqs.options:
        best = min(opts, key=lambda opt: cost_fn(mask | opt.read_mask))
        mask |= best.read_mask
        chosen.append(best.equation)
    return cost_fn(mask), chosen, mask


def greedy_scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    algorithm: str = "u",
    depth: int = 1,
    restarts: int = 3,
) -> RecoveryScheme:
    """Greedy approximation of the chosen algorithm's scheme.

    ``restarts`` extra passes greedily re-choose the slots in reverse and
    middle-out orders by re-costing from a different accumulated prefix;
    the best pass wins.  Quality is not guaranteed (use the exact
    generators when it matters); validity always is.
    """
    cost_fn, _ = search_key(algorithm, code.layout)

    rec_eqs = get_recovery_equations(
        code, failed_mask, depth=depth, ensure_complete=True
    )
    if not rec_eqs.is_complete():
        raise ValueError("failure situation lacks recovery equations")

    best: Optional[Tuple[Tuple, List[int], int]] = None
    for r in range(max(1, restarts)):
        # vary tie-breaking by rotating each slot's option list
        if r:
            for opts in rec_eqs.options:
                opts.append(opts.pop(0))
        result = _greedy_pass(rec_eqs, cost_fn)
        if best is None or result[0] < best[0]:
            best = result
    _, equations, read_mask = best

    return RecoveryScheme(
        layout=code.layout,
        failed_mask=failed_mask,
        failed_eids=list(rec_eqs.failed_eids),
        equations=equations,
        read_mask=read_mask,
        algorithm=f"greedy_{algorithm}",
        exact=False,
        expanded_states=len(rec_eqs.failed_eids) * max(1, restarts),
    )


def greedy_scheme(
    code: ErasureCode,
    failed_disk: int,
    algorithm: str = "u",
    depth: int = 1,
    restarts: int = 3,
) -> RecoveryScheme:
    """Greedy scheme for a single failed disk."""
    return greedy_scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), algorithm, depth, restarts
    )
