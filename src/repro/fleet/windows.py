"""Repair-window pricing: rebuild durations from the real recovery stack.

The whole point of the fleet engine is that the repair window is *not* a
free parameter: it is what the paper's load-balanced recovery schemes,
the placement layer's declustering, and the topology simulator actually
deliver.  This module prices one rebuild window per pool disk:

1. the :class:`~repro.recovery.RecoveryPlanner` supplies the per-role
   recovery scheme (naive / khan / C / U) whose ``loads`` say how many
   elements each surviving logical disk reads;
2. :func:`~repro.placement.rebuild_read_loads` composes those loads with
   the placement table, one execution group per role the disk plays,
   giving the element reads every surviving *pool* disk serves for the
   dead disk's stripes — the bottleneck disk's total is the read-side
   window;
3. when the placement carries a :class:`~repro.topology.Topology`, the
   max-min fair-share flow simulator
   (:func:`~repro.topology.rebuild_makespan`) prices the same reads
   through the tree's links and the window is the slower of the two;
4. the :class:`QosPolicy` throttle scales it all: a rebuild that may only
   use ``rebuild_headroom`` of each disk's bandwidth takes ``1/headroom``
   times longer, plus a fixed detection/spare-attach lag.

Pricing walks every pool disk (one scheme-search *per logical role*,
shared across disks), so results are memoised per
(code, placement, algorithm, policy, element size, topology) — the
Monte-Carlo loop then only multiplies precomputed window lengths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.codes.base import ErasureCode
from repro.placement import PlacementMap, rebuild_read_loads
from repro.recovery import RecoveryPlanner

#: process-wide memo: pricing key -> RepairWindows
_WINDOW_CACHE: Dict[Tuple, "RepairWindows"] = {}


@dataclass(frozen=True)
class QosPolicy:
    """How aggressively the rebuild may use the fleet's hardware.

    Parameters
    ----------
    name:
        Policy label surfaced in results and benchmark tables.
    disk_bw_mb_s:
        Sequential read bandwidth of one disk.
    rebuild_headroom:
        Fraction of each disk's (and link's) bandwidth the QoS admission
        grants to rebuild traffic; the window stretches by its inverse.
    detect_hours:
        Failure-detection plus spare-attach lag added to every window
        (RAFI's target: shrink exactly this term).
    capacity_scale:
        Real data each simulated element stands for, as a multiple of
        ``element_size``.  A placement models a disk with a few thousand
        stripe elements; a real disk holds millions — the scale maps the
        simulated read bottleneck back to wall-clock rebuild hours
        without growing the table.
    """

    name: str = "unthrottled"
    disk_bw_mb_s: float = 200.0
    rebuild_headroom: float = 1.0
    detect_hours: float = 0.0
    capacity_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.disk_bw_mb_s <= 0:
            raise ValueError(f"disk_bw_mb_s must be > 0, got {self.disk_bw_mb_s}")
        if not 0.0 < self.rebuild_headroom <= 1.0:
            raise ValueError(
                f"rebuild_headroom must be in (0, 1], got {self.rebuild_headroom}"
            )
        if self.detect_hours < 0:
            raise ValueError(f"detect_hours must be >= 0, got {self.detect_hours}")
        if self.capacity_scale <= 0:
            raise ValueError(
                f"capacity_scale must be > 0, got {self.capacity_scale}"
            )


@dataclass
class RepairWindows:
    """Per-pool-disk rebuild window lengths plus their provenance."""

    hours: np.ndarray
    policy: QosPolicy
    algorithm: str
    placement_name: str
    priced_with_topology: bool
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def n_disks(self) -> int:
        return int(len(self.hours))

    @property
    def mean_hours(self) -> float:
        return float(self.hours.mean())

    @property
    def max_hours(self) -> float:
        return float(self.hours.max())

    def describe(self) -> str:
        return (
            f"{self.placement_name}/{self.algorithm} windows: "
            f"mean {self.mean_hours:.2f}h max {self.max_hours:.2f}h "
            f"({self.policy.name}"
            + (", topology-priced" if self.priced_with_topology else "")
            + ")"
        )


def uniform_windows(
    n_disks: int, hours: float, name: str = "uniform"
) -> RepairWindows:
    """Model-free constant windows (tests and quick what-ifs)."""
    if n_disks < 1:
        raise ValueError(f"n_disks must be >= 1, got {n_disks}")
    if hours < 0:
        raise ValueError(f"window hours must be >= 0, got {hours}")
    return RepairWindows(
        hours=np.full(n_disks, float(hours)),
        policy=QosPolicy(name=name),
        algorithm="fixed",
        placement_name=name,
        priced_with_topology=False,
    )


def _placement_digest(placement: PlacementMap) -> str:
    h = hashlib.sha256()
    h.update(placement.name.encode())
    h.update(str(placement.n_pool).encode())
    h.update(np.ascontiguousarray(placement.table).tobytes())
    return h.hexdigest()


def _pricing_key(
    code: ErasureCode,
    placement: PlacementMap,
    algorithm: str,
    depth: int,
    policy: QosPolicy,
    element_size: int,
    use_topology: bool,
) -> Tuple:
    topo = placement.topology if use_topology else None
    topo_key = (
        (topo.spec(), topo.disk_bw, topo.nic_bw, topo.rack_bw)
        if topo is not None
        else None
    )
    return (
        code.describe(),
        _placement_digest(placement),
        algorithm,
        depth,
        policy,
        element_size,
        topo_key,
    )


def price_repair_windows(
    code: ErasureCode,
    placement: PlacementMap,
    algorithm: str = "u",
    depth: int = 1,
    policy: QosPolicy = QosPolicy(),
    element_size: int = 4096,
    use_topology: Optional[bool] = None,
    cache: bool = True,
) -> RepairWindows:
    """Price one rebuild window per pool disk through the real stack.

    ``use_topology=None`` auto-enables makespan pricing when the
    placement has a topology attached.  Results are memoised per pricing
    key so repeated fleet arms (the benchmark grid, the CLI table) pay
    for the schemes and the per-disk load walk once.
    """
    if element_size < 1:
        raise ValueError(f"element_size must be >= 1, got {element_size}")
    if code.layout.n_disks != placement.width:
        raise ValueError(
            f"code width {code.layout.n_disks} != placement width "
            f"{placement.width}"
        )
    if use_topology is None:
        use_topology = placement.topology is not None
    if use_topology and placement.topology is None:
        raise ValueError("use_topology=True but the placement has no topology")

    key = _pricing_key(
        code, placement, algorithm, depth, policy, element_size, use_topology
    )
    if cache:
        hit = _WINDOW_CACHE.get(key)
        if hit is not None:
            obs.count("fleet.windows.hits")
            return hit
    obs.count("fleet.windows.misses")

    with obs.span(
        "fleet.price_windows",
        placement=placement.name,
        algorithm=algorithm,
        n_pool=placement.n_pool,
    ):
        planner = RecoveryPlanner(code, algorithm=algorithm, depth=depth)
        schemes = [planner.scheme_for_disk(role) for role in range(placement.width)]
        mb_per_element = element_size * policy.capacity_scale / 2**20
        effective_bw = policy.disk_bw_mb_s * policy.rebuild_headroom

        hours = np.zeros(placement.n_pool, dtype=np.float64)
        max_reads = 0
        max_makespan_s = 0.0
        for disk in range(placement.n_pool):
            reads = rebuild_read_loads(
                placement,
                disk,
                (
                    (role, stripe_ids, schemes[role])
                    for role, stripe_ids in placement.role_groups(disk)
                ),
            )
            bottleneck = int(reads.max())
            max_reads = max(max_reads, bottleneck)
            rebuild_s = bottleneck * mb_per_element / effective_bw
            if use_topology and bottleneck:
                from repro.topology import rebuild_makespan

                leaf_loads = np.zeros(
                    placement.topology.n_disks, dtype=np.float64
                )
                leaf_loads[placement.require_leaf_of_disk()] = (
                    reads * policy.capacity_scale
                )
                sim = rebuild_makespan(
                    placement.topology, leaf_loads, element_size=element_size
                )
                makespan_s = sim.makespan_s / policy.rebuild_headroom
                max_makespan_s = max(max_makespan_s, makespan_s)
                rebuild_s = max(rebuild_s, makespan_s)
            hours[disk] = policy.detect_hours + rebuild_s / 3600.0

    result = RepairWindows(
        hours=hours,
        policy=policy,
        algorithm=algorithm,
        placement_name=placement.name,
        priced_with_topology=bool(use_topology),
        meta={
            "max_bottleneck_reads": float(max_reads),
            "max_makespan_s": max_makespan_s,
            "scheme_total_reads": float(
                sum(sum(scheme.loads) for scheme in schemes)
            ),
            "depth": float(depth),
            "element_size": float(element_size),
        },
    )
    if cache:
        _WINDOW_CACHE[key] = result
    return result
