"""The scheme generators, by name: one search under three keys (Sec. III–V).

Khan's algorithm, the C-Algorithm and the U-Algorithm are one uniform-cost
search (:mod:`repro.recovery.search`) under the keys ``(total,)``,
``(total, max_load)`` and ``(max_load, total)``; U with per-disk
``weights`` is the heterogeneous variant of Sec. V-D.  The module keeps
U's name: Khan and C are the same search under the other two keys.

:data:`ALGORITHMS` is the one table from an algorithm name to its
generator and cost key.  Every entry point that takes a name resolves it
here: :func:`scheme_for_mask` (any failed-element set),
:func:`scheme_for_disk` (one failed disk; :func:`khan_scheme`,
:func:`c_scheme` and :func:`u_scheme` are its shorthands) and
:func:`search_key` (for callers that enumerate their own equations).
The baselines ignore ``depth``, so no caller branches on the name.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.codes.base import ErasureCode
from repro.codes.layout import CodeLayout
from repro.equations.enumerate import get_recovery_equations
from repro.recovery.conventional import conventional_scheme_for_mask
from repro.recovery.naive import naive_scheme_for_mask
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import (
    CostModel,
    conditional_cost,
    generate_scheme,
    khan_cost,
    unconditional_cost,
    weighted_cost,
)


class Algorithm(NamedTuple):
    """One row of :data:`ALGORITHMS`."""

    #: the cost key of the plans searched under this name
    cost: Callable[[CodeLayout], CostModel]
    #: the label those searched plans carry
    label: str
    #: a baseline's generator ``(code, failed_mask, failed_disk)``;
    #: ``None`` for a searched algorithm
    baseline: Optional[Callable[..., RecoveryScheme]] = None


ALGORITHMS: Dict[str, Algorithm] = {
    # a baseline's plans that must be searched (escalations, degraded
    # reads) are U plans
    "naive": Algorithm(unconditional_cost, "u", naive_scheme_for_mask),
    "conventional": Algorithm(
        unconditional_cost, "u", conventional_scheme_for_mask
    ),
    "khan": Algorithm(khan_cost, "khan"),
    "c": Algorithm(conditional_cost, "c"),
    "u": Algorithm(unconditional_cost, "u"),
}

#: the names that search, in table order
SEARCHED = tuple(n for n, row in ALGORITHMS.items() if row.baseline is None)


def algorithm_row(algorithm: str) -> Algorithm:
    """The table row of ``algorithm``; an unknown name raises
    :class:`ValueError` listing the choices."""
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None


def search_key(
    algorithm: str,
    layout: CodeLayout,
    weights: Optional[Sequence[float]] = None,
    baselines: bool = False,
) -> Tuple[CostModel, str]:
    """The cost model and label of the plans searched under ``algorithm``.

    ``weights`` (per-disk read costs) select the weighted U key, labelled
    ``u_weighted``; they apply to ``u`` only.  A baseline name raises
    :class:`ValueError` unless ``baselines`` is set, when it resolves to
    the key its searched plans use.
    """
    row = algorithm_row(algorithm)
    if row.baseline is not None and not baselines:
        raise ValueError(
            f"algorithm {algorithm!r} does not search; choose from "
            f"{sorted(SEARCHED)}"
        )
    if weights is None:
        return row.cost(layout), row.label
    if algorithm != "u":
        raise ValueError(f"weights apply to algorithm 'u' only, not {algorithm!r}")
    return weighted_cost(layout, weights), "u_weighted"


def scheme_for_mask(
    code: ErasureCode,
    failed_mask: int,
    algorithm: str = "u",
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
    weights: Optional[Sequence[float]] = None,
    failed_disk: Optional[int] = None,
) -> RecoveryScheme:
    """``algorithm``'s scheme for an arbitrary failed-element set.

    ``weights`` (``u`` only) run the heterogeneous variant of Sec. V-D:
    the key becomes the maximal per-disk read cost (load times the disk's
    weight); uniform weights of 1 give the plain U-Scheme.
    ``failed_disk`` names the disk a whole-disk mask covers (the
    conventional baseline's locality repair needs it).
    """
    cost, label = search_key(algorithm, code.layout, weights, baselines=True)
    baseline = ALGORITHMS[algorithm].baseline
    if baseline is not None:
        return baseline(code, failed_mask, failed_disk)
    rec_eqs = get_recovery_equations(
        code, failed_mask, depth=depth, ensure_complete=True
    )
    return generate_scheme(
        rec_eqs, cost, algorithm=label, max_expansions=max_expansions
    )


def scheme_for_disk(
    code: ErasureCode,
    failed_disk: int,
    algorithm: str = "u",
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
    weights: Optional[Sequence[float]] = None,
) -> RecoveryScheme:
    """``algorithm``'s scheme for a single failed disk."""
    return scheme_for_mask(
        code, code.layout.disk_mask(failed_disk), algorithm, depth,
        max_expansions, weights, failed_disk,
    )


def khan_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Khan's minimal-total-read scheme; ties fall to search pop order,
    "the first searched suitable recovery scheme" (Sec. V-A)."""
    return scheme_for_disk(code, failed_disk, "khan", depth, max_expansions)


def c_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """C-Scheme: minimal total read, then minimal max load."""
    return scheme_for_disk(code, failed_disk, "c", depth, max_expansions)


def u_scheme(
    code: ErasureCode,
    failed_disk: int,
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """U-Scheme: minimal max load, then minimal total read."""
    return scheme_for_disk(code, failed_disk, "u", depth, max_expansions)
