"""Per-element degraded-read plan cache for the serving hot path.

Steady-state degraded reads must cost zero scheme search.  This cache gets
there in two layers:

* the whole-disk scheme is obtained once per logical role from a
  :class:`~repro.recovery.planner.RecoveryPlanner` (itself optionally
  backed by a persistent :class:`~repro.recovery.plancache.SchemePlanCache`,
  so even the first read after a process restart can skip the search);
* every per-row plan is *sliced* out of that scheme with
  :func:`~repro.recovery.degraded_read.slice_degraded_plan` — pure bitmask
  chasing — and memoised under ``(disk, row)``.  Sliced single-row plans
  are additionally written through to the persistent store under a
  ``degraded-<alg>-row<r>`` algorithm key (reusing ``SchemePlanCache``'s
  content-hash keying), so a restarted server warms from disk.

Cache traffic is published as ``serving.plan_hit`` / ``serving.plan_miss``
obs counters; a benchmark asserting "warm cache, zero search" watches
these plus the ``search.*`` family.

:class:`~repro.codec.batch.CompiledPlanCache`, the memo of compiled
plans a shard keeps next to this one, lives with the kernel it feeds and
is re-exported here.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

from repro import obs
from repro.codec.batch import CompiledPlanCache
from repro.codes.base import ErasureCode
from repro.recovery.degraded_read import slice_degraded_plan
from repro.recovery.plancache import SchemePlanCache
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
        Optional shared planner; its in-memory disk schemes are reused.
    store:
        Optional persistent plan store for both the whole-disk schemes
        (via the planner) and the sliced per-row plans.
    """

    def __init__(
        self,
        code: ErasureCode,
        algorithm: str = "u",
        depth: int = 1,
        planner: Optional[RecoveryPlanner] = None,
        store: Optional[SchemePlanCache] = None,
    ) -> None:
        self.code = code
        self.planner = planner or RecoveryPlanner(
            code, algorithm=algorithm, depth=depth, plan_cache=store
        )
        self.store = store if store is not None else self.planner.plan_cache
        self._plans: Dict[Tuple[int, int], RecoveryScheme] = {}
        self._lock = threading.Lock()

    def _row_key(self, row: int) -> str:
        return f"degraded-{self.planner.algorithm}-row{row}"

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
            if self.store is not None:
                plan = self.store.get(
                    self.code,
                    disk,
                    self._row_key(row),
                    self.planner.depth,
                    self.planner.max_expansions,
                )
            if plan is None:
                disk_scheme = self.planner.scheme_for_disk(disk)
                plan = slice_degraded_plan(disk_scheme, [row])
                if self.store is not None:
                    self.store.put(
                        self.code,
                        disk,
                        self._row_key(row),
                        self.planner.depth,
                        plan,
                        self.planner.max_expansions,
                    )
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
