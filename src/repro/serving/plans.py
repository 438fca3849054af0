"""Per-element degraded-read plan cache for the serving hot path.

Steady-state degraded reads must cost zero scheme search.  This cache gets
there in two layers:

* every per-row plan is memoised under ``(disk, row)``;
* a memo miss *slices* the plan out of the logical role's whole-disk
  scheme with :func:`~repro.recovery.degraded_read.slice_degraded_plan` —
  pure bitmask chasing, no search.  The whole-disk scheme comes from a
  :class:`~repro.recovery.planner.RecoveryPlanner`, itself optionally
  backed by a persistent :class:`~repro.recovery.plancache.SchemePlanCache`,
  so even the first read after a process restart can skip the search.
  Sliced plans are derived, not searched, so they are never persisted.

Cache traffic is published as ``serving.plan_hit`` / ``serving.plan_miss``
obs counters; a benchmark asserting "warm cache, zero search" watches
these plus the ``search.*`` family.

:class:`~repro.codec.batch.CompiledPlanCache`, the fault ladder's memo of
compiled plans, lives with the kernel it feeds and is re-exported here.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

from repro import obs
from repro.codec.batch import CompiledPlanCache
from repro.codes.base import ErasureCode
from repro.recovery.degraded_read import slice_degraded_plan
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme

__all__ = ["CompiledPlanCache", "DegradedPlanCache"]


class DegradedPlanCache:
    """Memoised per-(disk, row) degraded-read plans (see module docstring).

    Parameters
    ----------
    code:
        The erasure code.
    algorithm / depth:
        Whole-disk scheme search configuration (ignored when ``planner``
        is supplied).
    planner:
        Optional shared planner; its disk schemes (and its persistent
        plan cache, if any) are reused.
    """

    def __init__(
        self,
        code: ErasureCode,
        algorithm: str = "u",
        depth: int = 1,
        planner: Optional[RecoveryPlanner] = None,
    ) -> None:
        self.code = code
        self.planner = planner or RecoveryPlanner(
            code, algorithm=algorithm, depth=depth
        )
        self._plans: Dict[Tuple[int, int], RecoveryScheme] = {}
        self._lock = threading.Lock()

    def plan_for_element(self, disk: int, row: int) -> RecoveryScheme:
        """The degraded-read plan for one element of a failed disk."""
        plan = self._plans.get((disk, row))
        if plan is not None:
            obs.count("serving.plan_hit")
            return plan
        with self._lock:
            plan = self._plans.get((disk, row))
            if plan is not None:
                obs.count("serving.plan_hit")
                return plan
            obs.count("serving.plan_miss")
            plan = slice_degraded_plan(self.planner.scheme_for_disk(disk), [row])
            self._plans[(disk, row)] = plan
            return plan

    def warm(self, disks: Iterable[int]) -> int:
        """Precompute every per-row plan for the given logical disks.

        Returns the number of plans now resident.  Called once at serving
        start-up so the read path never plans under traffic.
        """
        k = self.code.layout.k_rows
        for disk in disks:
            for row in range(k):
                self.plan_for_element(disk, row)
        return len(self._plans)

    def __len__(self) -> int:
        return len(self._plans)
