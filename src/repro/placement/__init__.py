"""``repro.placement`` — stripe->disk placement over a large disk pool.

Turns "one 16-disk array" into "a storage fleet": a
:class:`~repro.placement.map.PlacementMap` decides which ``w`` pool disks
host each stripe (flat RAID groups, block-design declustering on AG(2,q)
or Sidon/Singer lines with D3 as the fallback, D3-style deterministic
distribution, or seeded random), and a
:class:`~repro.placement.pool.PoolStore` holds the encoded bytes the pool
rebuild in :mod:`repro.pipeline.pool` recovers.  See docs/placement.md.
"""

from repro.placement.map import (
    D3Placement,
    DeclusteredPlacement,
    FlatPlacement,
    PlacementMap,
    RackAwarePlacement,
    RandomPlacement,
    list_placements,
    make_placement,
    rebuild_read_loads,
)
from repro.placement.pool import PoolStore

__all__ = [
    "D3Placement",
    "DeclusteredPlacement",
    "FlatPlacement",
    "PlacementMap",
    "PoolStore",
    "RackAwarePlacement",
    "RandomPlacement",
    "list_placements",
    "make_placement",
    "rebuild_read_loads",
]
