"""Experiment-series generators for the paper's figures.

* :func:`figure3_series` — average number of parallel read accesses vs.
  number of disks (Figure 3a-e), per algorithm.
* :func:`figure4_series` — average recovery speed on the simulated disk
  array vs. number of disks (Figure 4a-e), per algorithm.
* :func:`aggregate_improvements` — the Sec. V-A / VI-B headline numbers
  (max and mean reduction of C- and U-Schemes vs. Khan's scheme).

Scheme generation is the expensive part (the search is exponential in the
worst case), so a :class:`SchemeCache` shares generated schemes between both
figures and across benchmark invocations, mirroring the paper's "generate
ahead of time, use whenever needed" deployment (Sec. II-B).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import improvement_percent
from repro.codes.registry import make_code
from repro.disksim.disk import SAVVIO_10K3, DiskParams
from repro.disksim.recovery_sim import simulate_stack_recovery
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme

#: algorithm order used throughout the paper's figures
FIGURE_ALGORITHMS: Tuple[str, ...] = ("khan", "c", "u")

#: disk counts on the x-axis of Figures 3 and 4
FIGURE_DISK_RANGE: Tuple[int, ...] = tuple(range(7, 17))


class SchemeCache:
    """Cache of per-data-disk schemes keyed by (family, n_disks, algorithm).

    With a ``cache_dir`` the schemes persist across processes in one
    :class:`~repro.recovery.plancache.SchemePlanCache` store,
    ``cache_dir / "plans.json"``, which turns the multi-minute figure
    sweeps into second-scale replays.  Deleting the file forces
    regeneration.
    """

    def __init__(
        self,
        depth: int = 1,
        max_expansions: Optional[int] = 2_000_000,
        cache_dir: Optional[os.PathLike] = None,
    ) -> None:
        self.depth = depth
        self.max_expansions = max_expansions
        #: the persistent store every planner of this cache shares
        self.store = (
            SchemePlanCache(Path(cache_dir) / "plans.json") if cache_dir else None
        )
        self._mem: Dict[Tuple[str, int, str], List[RecoveryScheme]] = {}

    def schemes(
        self, family: str, n_disks: int, algorithm: str
    ) -> List[RecoveryScheme]:
        """Schemes for every data disk of ``family`` at ``n_disks``."""
        key = (family, n_disks, algorithm)
        if key not in self._mem:
            self._mem[key] = RecoveryPlanner(
                make_code(family, n_disks),
                algorithm=algorithm,
                depth=self.depth,
                max_expansions=self.max_expansions,
                plan_cache=self.store,
            ).all_data_disk_schemes()
        return self._mem[key]


def figure3_series(
    family: str,
    disk_range: Sequence[int] = FIGURE_DISK_RANGE,
    algorithms: Sequence[str] = FIGURE_ALGORITHMS,
    cache: Optional[SchemeCache] = None,
) -> Dict[str, List[float]]:
    """Average parallel read accesses per algorithm over the disk range."""
    cache = cache or SchemeCache()
    out: Dict[str, List[float]] = {alg: [] for alg in algorithms}
    for n in disk_range:
        for alg in algorithms:
            schemes = cache.schemes(family, n, alg)
            out[alg].append(sum(s.max_load for s in schemes) / len(schemes))
    return out


def figure4_series(
    family: str,
    disk_range: Sequence[int] = FIGURE_DISK_RANGE,
    algorithms: Sequence[str] = FIGURE_ALGORITHMS,
    cache: Optional[SchemeCache] = None,
    stacks: int = 20,
    params: DiskParams = SAVVIO_10K3,
) -> Dict[str, List[float]]:
    """Average recovery speed (MB/s) per algorithm over the disk range."""
    cache = cache or SchemeCache()
    out: Dict[str, List[float]] = {alg: [] for alg in algorithms}
    for n in disk_range:
        code = make_code(family, n)
        for alg in algorithms:
            schemes = cache.schemes(family, n, alg)
            result = simulate_stack_recovery(code, schemes, stacks=stacks, params=params)
            out[alg].append(result.speed_mb_s)
    return out


def aggregate_improvements(
    series_by_family: Dict[str, Dict[str, List[float]]],
    baseline: str = "khan",
    lower_is_better: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Max and mean improvement of each algorithm vs. the baseline.

    For Figure-3 style series (parallel read accesses) improvements are
    reductions (``lower_is_better=True``); for Figure-4 speeds pass
    ``lower_is_better=False`` and the improvement is the speed-up of the
    equivalent recovery time (``1 - base/new`` of time = ``(new-base)/new``
    of speed ... reported as percent speed increase relative to achieved
    recovery-time reduction, matching the paper's phrasing).
    """
    out: Dict[str, Dict[str, float]] = {}
    algorithms = {
        alg
        for series in series_by_family.values()
        for alg in series
        if alg != baseline
    }
    for alg in sorted(algorithms):
        gains: List[float] = []
        for series in series_by_family.values():
            base_vals = series[baseline]
            alg_vals = series[alg]
            for b, a in zip(base_vals, alg_vals):
                if lower_is_better:
                    gains.append(improvement_percent(b, a))
                else:
                    # speed s = work/t; time reduction = 1 - b/a
                    gains.append((1.0 - b / a) * 100.0)
        if not gains:
            raise ValueError("no data points")
        out[alg] = {
            "max_percent": max(gains),
            "mean_percent": sum(gains) / len(gains),
        }
    return out
