"""Topology-aware recovery planning over a placed pool.

A scalar :class:`~repro.recovery.planner.RecoveryPlanner` caches one
scheme per failed *logical role* — correct when all stripes look alike.
Under a topology, two stripes whose disks group differently into
machines and racks want different schemes: the one that minimises
traffic through the stripe's most-shared uplink.  The number of distinct
groupings is tiny for the cyclic placements (the layouts repeat modulo
the rack count), so :class:`TopologyAwarePlanner` memoises one search
per **canonical signature** — the stripe's (rack, machine) grouping
pattern relabelled by first occurrence, which is exactly the invariant
the lexicographic :class:`~repro.topology.cost.TopologyCost` key depends
on — and falls back to the scalar U-scheme past a search cap (counted on
``topology.plan_fallbacks``) so adversarial placements degrade
gracefully instead of searching per stripe.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.obs import LinkLoadMap
from repro.placement.map import rebuild_read_loads
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import generate_scheme
from repro.topology.cost import TopologyCost
from repro.topology.tree import Topology


def canonical_signature(
    machines: np.ndarray, racks: np.ndarray
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Relabel machine/rack ids by first occurrence along the slots.

    Two stripes with the same canonical signature have identical
    machine/rack groupings up to renaming, hence identical
    :class:`TopologyCost` landscapes and the same optimal scheme.
    """
    out = []
    for labels in (machines, racks):
        seen: Dict[int, int] = {}
        row = []
        for x in labels:
            x = int(x)
            if x not in seen:
                seen[x] = len(seen)
            row.append(seen[x])
        out.append(tuple(row))
    return out[0], out[1]


class TopologyAwarePlanner:
    """Per-(role, topology signature) scheme cache for one code instance.

    Parameters
    ----------
    code:
        The erasure code of every stripe.
    topology:
        The datacenter tree the pool disks live in.
    depth:
        Equation-enumeration depth (as in the scalar planner).
    search_cap:
        Maximum distinct topology searches; signatures past the cap reuse
        the scalar U-scheme of the role (the planner stays correct, just
        not topology-optimal for those stripes).
    base_planner:
        Scalar fallback planner; built on demand when omitted.
    """

    def __init__(
        self,
        code: ErasureCode,
        topology: Topology,
        depth: int = 1,
        max_expansions: Optional[int] = 2_000_000,
        search_cap: int = 256,
        base_planner: Optional[RecoveryPlanner] = None,
    ) -> None:
        self.code = code
        self.topology = topology
        self.depth = depth
        self.max_expansions = max_expansions
        self.search_cap = search_cap
        self.base = base_planner or RecoveryPlanner(
            code, algorithm="u", depth=depth, max_expansions=max_expansions
        )
        self._cache: Dict[Tuple, RecoveryScheme] = {}
        self.searches = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def scheme_for(
        self, role: int, machines: np.ndarray, racks: np.ndarray
    ) -> RecoveryScheme:
        """The scheme for logical ``role`` failing under this grouping.

        ``machines[l]`` / ``racks[l]`` label the machine/rack hosting
        logical disk ``l`` of the stripe (labels arbitrary; only equality
        matters).
        """
        m_sig, r_sig = canonical_signature(machines, racks)
        key = (role, m_sig, r_sig)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.searches >= self.search_cap:
            self.fallbacks += 1
            obs.count("topology.plan_fallbacks")
            scheme = self.base.scheme_for_disk(role)
        else:
            self.searches += 1
            with obs.span("topology.plan", role=role):
                rec_eqs = get_recovery_equations(
                    self.code,
                    self.code.layout.disk_mask(role),
                    depth=self.depth,
                    ensure_complete=True,
                )
                scheme = generate_scheme(
                    rec_eqs,
                    TopologyCost(self.code.layout, m_sig, r_sig),
                    algorithm="topo",
                    max_expansions=self.max_expansions,
                )
        self._cache[key] = scheme
        return scheme

    # ------------------------------------------------------------------
    def stripe_groups(
        self, placement, dead_disk: int
    ) -> Iterator[Tuple[int, np.ndarray, RecoveryScheme]]:
        """Group the dead disk's stripes by (role, topology signature).

        Yields ``(role, stripe_ids, scheme)`` with stripe ids ascending
        within each group — the execution unit the pool rebuild and the
        analytic load computation share, so their billing matches by
        construction.
        """
        topo = self.topology
        leaf = placement.require_leaf_of_disk(topo)
        for role, sel in placement.role_groups(dead_disk):
            # (n_sel, width) pool disks hosting each logical disk
            hosts = np.stack(
                [
                    placement.disk_of_role(sel, slot)
                    for slot in range(placement.width)
                ],
                axis=1,
            )
            leaves = leaf[hosts]
            machines = topo.machine_of_disk[leaves]
            racks = topo.rack_of_disk[leaves]
            groups: Dict[Tuple, List[int]] = {}
            for i in range(len(sel)):
                sig = canonical_signature(machines[i], racks[i])
                groups.setdefault(sig, []).append(i)
            for (m_sig, r_sig), idx in groups.items():
                scheme = self.scheme_for(
                    role, np.asarray(m_sig), np.asarray(r_sig)
                )
                yield role, sel[np.asarray(idx, dtype=np.int64)], scheme

    # ------------------------------------------------------------------
    def read_loads(
        self, placement, dead_disk: int
    ) -> Tuple[np.ndarray, LinkLoadMap]:
        """Analytic per-disk and per-link loads of a planned rebuild.

        No bytes move; the executed rebuild's billing must match these
        arrays exactly (the contract the benchmarks verify).
        """
        per_disk = rebuild_read_loads(
            placement, dead_disk, self.stripe_groups(placement, dead_disk)
        )
        return per_disk, link_loads(placement, per_disk)


def link_loads(placement, per_disk: np.ndarray) -> LinkLoadMap:
    """Bill a per-pool-disk read vector up the placement's topology tree."""
    topo = placement.topology
    if topo is None:
        raise ValueError("placement has no topology attached")
    leaf = placement.leaf_of_disk
    links = LinkLoadMap(topo)
    per_leaf = np.zeros(topo.n_disks, dtype=np.int64)
    np.add.at(per_leaf, leaf, np.asarray(per_disk, dtype=np.int64))
    links.add_vector(per_leaf)
    return links
