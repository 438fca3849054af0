"""Heterogeneous-environment helpers (paper Sec. V-D).

"Each disk has a weight value to identify the cost of reading an element
from this disk."  The weighted U-Algorithm itself lives in
:func:`repro.recovery.ualgorithm.scheme_for_mask` (``algorithm="u"`` with
``weights``);
this module provides the weight models that connect scheme generation with
the disk simulator so both sides agree on what "slow" means.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.codes.base import ErasureCode
from repro.disksim.disk import DiskParams
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.ualgorithm import scheme_for_disk


def weights_from_disk_params(params: Sequence[DiskParams]) -> List[float]:
    """Per-disk read costs derived from disk timing parameters.

    The cost of one element read is positioning + transfer; weights are
    normalised so the fastest disk costs 1.0, matching the paper's
    convention that the homogeneous case is all-ones.
    """
    costs = [p.positioning_s + p.element_read_s for p in params]
    fastest = min(costs)
    return [c / fastest for c in costs]


def weights_from_speed_factors(speed_factors: Sequence[float]) -> List[float]:
    """Weights for disks described by relative speed (2.0 = twice as fast)."""
    if any(s <= 0 for s in speed_factors):
        raise ValueError("speed factors must be positive")
    return [1.0 / s for s in speed_factors]


def heterogeneous_u_scheme(
    code: ErasureCode,
    failed_disk: int,
    params: Sequence[DiskParams],
    depth: int = 2,
) -> RecoveryScheme:
    """Weighted U-Scheme for a failed disk on a described array."""
    if len(params) != code.layout.n_disks:
        raise ValueError(
            f"need {code.layout.n_disks} DiskParams, got {len(params)}"
        )
    weights = weights_from_disk_params(params)
    return scheme_for_disk(code, failed_disk, "u", depth=depth, weights=weights)
