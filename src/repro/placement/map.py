"""Stripe-to-disk placement over a large disk pool.

The paper balances rebuild reads across the ``n`` surviving disks of *one*
array.  A storage fleet has hundreds of disks and only ``w`` of them hold
any given stripe — so which ``w`` the placement picks decides how far one
dead disk's rebuild fans out.  This module is that decision, behind one
interface:

* :class:`FlatPlacement` — fixed RAID groups (the classic baseline): the
  pool is carved into ``n_pool // w`` disjoint groups and every stripe
  lives entirely inside one group.  A dead disk's rebuild reads all land
  on its ``w - 1`` group mates, no matter how big the pool is.
* :class:`DeclusteredPlacement` — parity declustering via block designs
  (Dau et al., *Parity Declustering via t-designs*): the lines of the
  affine plane AG(2, q) when ``n_pool = q²`` and ``w = q``; else the
  cyclic translates of a block with distinct pairwise differences (a
  Singer set, i.e. PG(2, q), when ``n_pool = w² - w + 1``); else D3's
  table.  On AG/PG geometries every pair of disks shares stripes equally
  and each role visits every disk equally, so a rebuild's reads spread
  evenly over every survivor.
* :class:`D3Placement` — deterministic-distribution layout in the spirit
  of D3 (Xu et al., arXiv:2004.03998): stripes walk the pool with a
  start offset and a stride that cycles through the units mod ``n_pool``,
  pairing every disk with every other at equal rates without any stored
  randomness.
* :class:`RandomPlacement` — seeded uniform-random ``w``-subsets; the
  declustering upper bound the combinatorial layouts are judged against.
* :class:`RackAwarePlacement` — topology-aware declustering: slots walk
  the racks round-robin (capping co-located roles per rack at
  ``ceil(w / racks)``) while a D3-style cycling coprime stride spreads
  the intra-rack picks, so rebuild reads decluster across disks *and*
  rack uplinks at once.  Requires a :class:`~repro.topology.Topology`.

A placement may carry a topology mapping (:meth:`PlacementMap.attach_topology`:
pool disk -> tree leaf), which is what lets the pool rebuild bill element
reads up the tree and the topology-aware planner pick schemes per rack
signature.

Every strategy materialises a ``(n_stripes, w)`` table of pool-disk ids
(position = *slot*), validated to hold ``w`` distinct disks per stripe.
Within a stripe the logical role ``l`` sits at slot ``(l + s) % w`` — the
paper's per-stripe rotation, kept so the dedicated-parity hotspot fix
survives the move to a pool, and so a rotated array is exactly the
one-group :func:`FlatPlacement` with ``n_pool = w``, rebuilt by the same
engine as any pool.  The inverse map (disk -> affected stripes, grouped
by role) is exactly what a rebuild needs to know.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.gf2.field import PRIMITIVE_POLYS, GF2w


class PlacementMap:
    """One stripe->disk placement: the table plus both lookup directions.

    Parameters
    ----------
    n_pool:
        Disks in the pool.
    table:
        ``(n_stripes, width)`` integer array; row ``s`` lists the pool
        disks hosting stripe ``s`` in slot order.
    name:
        Strategy name (surfaced in stats/benchmarks).
    group_starts:
        Optional ascending stripe indices where a *placement group* (a
        run of stripes sharing one disk set) begins.  Used to align
        serving shard bounds to group boundaries; strategies whose disk
        set changes every stripe leave it ``None`` (any bound aligns).
    construction:
        How the table was built, when a strategy has more than one way
        (``declustered``: ``"ag(2,q)"``, ``"sidon"`` or ``"d3"``);
        defaults to ``name``.
    """

    def __init__(
        self,
        n_pool: int,
        table: np.ndarray,
        name: str,
        group_starts: Optional[np.ndarray] = None,
        construction: Optional[str] = None,
    ) -> None:
        table = np.ascontiguousarray(table, dtype=np.int32)
        if table.ndim != 2:
            raise ValueError(f"table must be 2-D, got shape {table.shape}")
        n_stripes, width = table.shape
        if n_stripes < 1 or width < 1:
            raise ValueError(f"empty placement table {table.shape}")
        if width > n_pool:
            raise ValueError(
                f"stripe width {width} exceeds pool size {n_pool}"
            )
        if table.min() < 0 or table.max() >= n_pool:
            raise ValueError("placement table references disks outside the pool")
        srt = np.sort(table, axis=1)
        if (srt[:, 1:] == srt[:, :-1]).any():
            dup = int(np.nonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))[0][0])
            raise ValueError(f"stripe {dup} places two roles on one disk")
        self.n_pool = n_pool
        self.table = table
        self.name = name
        self._construction = construction or name
        self.group_starts = (
            None
            if group_starts is None
            else np.ascontiguousarray(group_starts, dtype=np.int64)
        )
        #: optional datacenter tree + pool-disk -> tree-leaf map, set by
        #: :meth:`attach_topology`
        self.topology = None
        self.leaf_of_disk: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_stripes(self) -> int:
        return int(self.table.shape[0])

    @property
    def width(self) -> int:
        return int(self.table.shape[1])

    @property
    def construction(self) -> str:
        """Which construction built the table (see ``construction``)."""
        return self._construction

    # ------------------------------------------------------------------
    # forward map
    # ------------------------------------------------------------------
    def disks_for_stripe(self, stripe: int) -> np.ndarray:
        """Ordered pool disks hosting one stripe (slot order)."""
        return self.table[stripe]

    def slot_of_role(
        self, stripes: "int | np.ndarray", role: "int | np.ndarray"
    ) -> np.ndarray:
        """Slot a logical role occupies in each stripe (the rotation)."""
        return (np.asarray(role) + np.asarray(stripes)) % self.width

    def disk_of_role(
        self, stripes: "int | np.ndarray", role: "int | np.ndarray"
    ) -> np.ndarray:
        """Pool disk serving logical role ``role`` of each stripe."""
        stripes = np.asarray(stripes)
        return self.table[stripes, self.slot_of_role(stripes, role)]

    # ------------------------------------------------------------------
    # inverse map (what a rebuild iterates)
    # ------------------------------------------------------------------
    def stripes_of_disk(self, disk: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(stripe_ids, slots)`` of every placement touching ``disk``."""
        if not 0 <= disk < self.n_pool:
            raise IndexError(f"pool disk {disk} out of range [0, {self.n_pool})")
        stripes, slots = np.nonzero(self.table == disk)
        return stripes.astype(np.int64), slots.astype(np.int64)

    def roles_of_disk(self, disk: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(stripe_ids, logical_roles)`` this disk plays — rebuild's view."""
        stripes, slots = self.stripes_of_disk(disk)
        return stripes, (slots - stripes) % self.width

    def role_groups(self, disk: int) -> Iterator[Tuple[int, np.ndarray]]:
        """``(role, stripe_ids)`` per logical role ``disk`` plays, ascending.

        The grouping every rebuild of ``disk`` starts from: stripes in
        which the disk plays one role share one recovery scheme.
        """
        stripes, roles = self.roles_of_disk(disk)
        for role in np.unique(roles):
            yield int(role), np.sort(stripes[roles == role])

    def stripes_per_disk(self) -> np.ndarray:
        """How many stripes each pool disk hosts (capacity balance)."""
        return np.bincount(self.table.reshape(-1), minlength=self.n_pool)

    # ------------------------------------------------------------------
    # topology integration
    # ------------------------------------------------------------------
    def attach_topology(
        self, topology, leaf_of_disk: Optional[np.ndarray] = None
    ) -> "PlacementMap":
        """Map the pool's disks onto a datacenter topology tree.

        ``leaf_of_disk[d]`` is the tree leaf (topology disk id) hosting
        pool disk ``d``; the default identity map requires the tree to
        have exactly ``n_pool`` leaves.  Returns ``self`` for chaining.
        """
        if leaf_of_disk is None:
            if topology.n_disks != self.n_pool:
                raise ValueError(
                    f"topology has {topology.n_disks} leaves but the pool "
                    f"has {self.n_pool} disks (pass leaf_of_disk)"
                )
            leaf_of_disk = np.arange(self.n_pool, dtype=np.int64)
        else:
            leaf_of_disk = np.ascontiguousarray(leaf_of_disk, dtype=np.int64)
            if leaf_of_disk.shape != (self.n_pool,):
                raise ValueError(
                    f"leaf_of_disk must have shape ({self.n_pool},), got "
                    f"{leaf_of_disk.shape}"
                )
            if leaf_of_disk.min() < 0 or leaf_of_disk.max() >= topology.n_disks:
                raise ValueError("leaf_of_disk references leaves outside the tree")
            if len(np.unique(leaf_of_disk)) != self.n_pool:
                raise ValueError("leaf_of_disk maps two pool disks to one leaf")
        self.topology = topology
        self.leaf_of_disk = leaf_of_disk
        return self

    def require_leaf_of_disk(self, topology=None) -> np.ndarray:
        """The pool-disk -> leaf map; raises when no topology is attached."""
        if self.topology is None or self.leaf_of_disk is None:
            raise ValueError(
                "placement has no topology attached (call attach_topology)"
            )
        if topology is not None and topology is not self.topology:
            raise ValueError("placement is attached to a different topology")
        return self.leaf_of_disk

    # ------------------------------------------------------------------
    # serving integration
    # ------------------------------------------------------------------
    def shard_bounds(self, n_shards: int) -> np.ndarray:
        """Stripe-range shard bounds aligned to placement-group starts.

        A shard never splits a placement group: each even-split boundary
        is snapped to the *nearer* of the surrounding group starts (ties
        snap up), so a boundary just past a group start no longer drags
        almost a whole extra group into the preceding shard.  Strategies
        without fixed groups (``group_starts is None``) return the plain
        even split.  Bounds are monotone; with more shards than groups
        the trailing shards come out empty — the serving layer tolerates
        that.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        n = self.n_stripes
        targets = np.asarray(
            [i * n // n_shards for i in range(n_shards + 1)], dtype=np.int64
        )
        if self.group_starts is None:
            return targets
        allowed = np.unique(np.append(self.group_starts, n))
        up = np.clip(np.searchsorted(allowed, targets), 0, len(allowed) - 1)
        down = np.maximum(up - 1, 0)
        nearer_down = (targets - allowed[down]) < (allowed[up] - targets)
        snapped = allowed[np.where(nearer_down, down, up)]
        snapped[0], snapped[-1] = 0, n
        return np.maximum.accumulate(snapped)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _check_geometry(n_pool: int, n_stripes: int, width: int) -> None:
    if width < 2:
        raise ValueError(f"stripe width must be >= 2, got {width}")
    if n_pool < width:
        raise ValueError(f"pool of {n_pool} disks cannot host width-{width} stripes")
    if n_stripes < 1:
        raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")


def FlatPlacement(n_pool: int, n_stripes: int, width: int) -> PlacementMap:
    """Fixed RAID groups: contiguous stripe runs on disjoint disk groups.

    ``n_pool // width`` groups; leftover disks sit idle (exactly what a
    fixed-group fleet does with spares).  The rebuild of a dead disk
    reads only from its own group — the baseline declustering beats.
    """
    _check_geometry(n_pool, n_stripes, width)
    n_groups = n_pool // width
    s = np.arange(n_stripes, dtype=np.int64)
    group = s * n_groups // n_stripes if n_stripes >= n_groups else s % n_groups
    table = (group[:, None] * width + np.arange(width, dtype=np.int64)[None, :])
    starts = np.flatnonzero(np.diff(group, prepend=group[0] - 1) != 0)
    return PlacementMap(n_pool, table, "flat", group_starts=starts)


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


def _affine_lines(n_pool: int, width: int) -> Optional[np.ndarray]:
    """The ``q * q + q`` lines of the affine plane AG(2, q), or ``None``.

    Applies when ``n_pool == q * q`` and ``width == q`` for a prime ``q``
    (arithmetic mod ``q``) or ``q = 2**m`` (:class:`~repro.gf2.field.GF2w`).
    Point ``(x, y)`` is pool disk ``q * x + y``.  Lines ``y = m * x + b``
    (row ``m * q + b``, points in ``x`` order) come first, then the
    verticals ``x = c`` (row ``q * q + c``, points in ``y`` order).  Any
    two points lie on exactly one line: a 2-(q², q, 1) design.
    """
    q = width
    if n_pool != q * q:
        return None
    x = np.arange(q, dtype=np.int64)
    if _is_prime(q):
        mul = np.outer(x, x) % q
        add = (x[:, None] + x[None, :]) % q
    elif q & (q - 1) == 0 and q.bit_length() - 1 in PRIMITIVE_POLYS:
        field = GF2w(q.bit_length() - 1)
        mul = np.asarray([[field.mul(a, b) for b in range(q)] for a in range(q)])
        add = x[:, None] ^ x[None, :]
    else:
        return None
    # y[m, b, x] = m * x + b
    y = add[mul[:, None, :], x[None, :, None]]
    slopes = (q * x[None, None, :] + y).reshape(q * q, q)
    verticals = q * x[:, None] + x[None, :]
    return np.concatenate([slopes, verticals])


#: candidates one Sidon search may try before it gives up.  The first
#: Singer sets need at most 21.6k, at (57,8); (73,9) needs 4.7k.  A
#: search that spends it all takes ~40 ms on a 2-vCPU Xeon VM.
_SIDON_BUDGET = 40_000


def _search_sidon(n_pool: int, width: int, budget: int) -> Optional[Tuple[int, ...]]:
    """Lexicographically first Sidon block ``0 = b0 < ... < b_{w-1}`` mod
    ``n_pool`` (all ``w (w - 1)`` differences ``bi - bj`` distinct), or
    ``None`` when none exists or ``budget`` candidates were tried first.

    Depth-first in ascending order, so its first leaf is the greedy
    first-fit block whenever that one completes.
    """
    block = [0]
    tried = 0

    def extend(used: int, lo: int) -> bool:
        nonlocal tried
        if len(block) == width:
            return True
        for c in range(lo, n_pool - (width - len(block)) + 1):
            tried += 1
            if tried > budget:
                return False
            bits = 0
            for b in block:
                d = c - b
                mask = (1 << d) | (1 << (n_pool - d))
                # a difference of n_pool / 2 is its own negative: a repeat
                if (used | bits) & mask or 2 * d == n_pool:
                    break
                bits |= mask
            else:
                block.append(c)
                if extend(used | bits, c + 1):
                    return True
                block.pop()
        return False

    return tuple(block) if extend(0, 1) else None


@functools.lru_cache(maxsize=None)
def _sidon_block(n_pool: int, width: int) -> Optional[Tuple[int, ...]]:
    """:func:`_search_sidon` memoised per geometry; ``None`` without
    searching when ``w (w - 1) > n_pool - 1`` (too few differences)."""
    if width * (width - 1) > n_pool - 1:
        return None
    return _search_sidon(n_pool, width, _SIDON_BUDGET)


def _rotate_roles(lines: np.ndarray, n_stripes: int) -> np.ndarray:
    """Lay stripes on ``lines`` with every role visiting every point.

    Stripe ``s`` takes line ``s % P`` (``P = len(lines)``).  In pass
    ``t = s // P`` its role ``l`` goes on point ``(l + t) % w`` of that
    line and is stored at slot ``(l + s) % w``, the map's rotation
    convention.  Without the pass shift a cyclic design with
    ``n_pool % w == 0`` pins each slot, hence each role, to one point.
    """
    n_lines, width = lines.shape
    s = np.arange(n_stripes, dtype=np.int64)[:, None]
    role = (np.arange(width, dtype=np.int64)[None, :] - s) % width
    return lines[s % n_lines, (role + s // n_lines) % width]


def DeclusteredPlacement(n_pool: int, n_stripes: int, width: int) -> PlacementMap:
    """Design-based declustering, from the first construction that fits.

    1. ``ag(2,q)`` — the lines of the affine plane AG(2, q) when
       ``n_pool = q²`` and ``w = q`` for a prime or power-of-two ``q``:
       every pair of disks shares exactly one line.
    2. ``sidon`` — the ``n_pool`` cyclic translates of a block whose
       differences are all distinct (:func:`_sidon_block`), so every pair
       of disks shares at most one line.  Where ``n_pool = w² - w + 1``
       the search returns a Singer perfect difference set, and the lines
       are those of PG(2, w - 1).
    3. ``d3`` — :func:`D3Placement`'s table, when no such block exists or
       the search ran out of budget.

    The design constructions lay stripes out by :func:`_rotate_roles`,
    so within every ``w`` passes each disk plays each role equally
    often.  :attr:`PlacementMap.construction` names the one used
    (Dau et al., *Parity Declustering via t-designs*; Xu et al., D3).
    """
    _check_geometry(n_pool, n_stripes, width)
    lines = _affine_lines(n_pool, width)
    if lines is not None:
        construction = f"ag(2,{width})"
    else:
        block = _sidon_block(n_pool, width)
        if block is None:
            table = D3Placement(n_pool, n_stripes, width).table
            return PlacementMap(n_pool, table, "declustered", construction="d3")
        lines = (np.asarray(block, dtype=np.int64)[None, :]
                 + np.arange(n_pool, dtype=np.int64)[:, None]) % n_pool
        construction = "sidon"
    table = _rotate_roles(lines, n_stripes)
    return PlacementMap(n_pool, table, "declustered", construction=construction)


def D3Placement(n_pool: int, n_stripes: int, width: int) -> PlacementMap:
    """Deterministic distribution: start offset + cycling coprime stride.

    Stripe ``s`` takes disks ``start + j * sigma (mod n_pool)`` with
    ``start = s mod n_pool`` and ``sigma`` drawn round-robin from the
    units mod ``n_pool`` (coprime strides keep the ``w`` picks distinct).
    Successive pool-sized bands use successive strides, so every disk
    pairs with every other at equal rates as the stripe count grows —
    the D3 idea of spreading by arithmetic, not by stored maps.
    """
    _check_geometry(n_pool, n_stripes, width)
    strides = np.asarray(
        [u for u in range(1, n_pool) if math.gcd(u, n_pool) == 1],
        dtype=np.int64,
    )
    if not len(strides):  # n_pool == 1 is excluded by _check_geometry
        strides = np.asarray([1], dtype=np.int64)
    s = np.arange(n_stripes, dtype=np.int64)
    sigma = strides[(s // n_pool) % len(strides)]
    start = s % n_pool
    table = (
        start[:, None] + np.arange(width, dtype=np.int64)[None, :] * sigma[:, None]
    ) % n_pool
    return PlacementMap(n_pool, table, "d3")


def RandomPlacement(
    n_pool: int, n_stripes: int, width: int, seed: int = 0
) -> PlacementMap:
    """Seeded uniform-random ``w``-subsets (the declustering upper bound)."""
    _check_geometry(n_pool, n_stripes, width)
    rng = np.random.default_rng(seed)
    table = np.empty((n_stripes, width), dtype=np.int64)
    # argpartition of a random key matrix gives w distinct picks per
    # stripe; blocked so a million-stripe map never materialises an
    # (n_stripes, n_pool) float matrix
    block = max(1, (1 << 24) // max(n_pool, 1))
    for lo in range(0, n_stripes, block):
        hi = min(lo + block, n_stripes)
        keys = rng.random((hi - lo, n_pool))
        table[lo:hi] = np.argpartition(keys, width - 1, axis=1)[:, :width]
    return PlacementMap(n_pool, table, "random")


def RackAwarePlacement(
    n_pool: int, n_stripes: int, width: int, topology
) -> PlacementMap:
    """Rack-diverse declustering over a datacenter topology.

    Slot ``j`` of stripe ``s`` lands in rack ``(s + j) mod R``, so the
    stripe's roles spread over ``min(w, R)`` racks and no rack hosts more
    than ``ceil(w / R)`` of them — the co-location cap that keeps any one
    top-of-rack uplink out of the rebuild's critical path.  Within the
    rack, the pick walks ``s // R`` offset plus a D3-style cycling
    coprime stride, *plus* a per-(epoch, rack) offset ``e * rack`` that
    decorrelates the host sets of a disk's affected stripes across
    epochs — without it the dead-disk membership constraint pins every
    other slot's host to one disk per stripe-residue, and the rebuild's
    per-disk spread collapses to the flat case.  All offsets are common
    within a rack, so intra-stripe distinctness (the coprime-stride
    argument) is untouched.  The topology is attached to the returned
    map.
    """
    _check_geometry(n_pool, n_stripes, width)
    if topology is None:
        raise ValueError("rack_aware placement requires a topology")
    if topology.n_disks != n_pool:
        raise ValueError(
            f"topology has {topology.n_disks} disks but the pool has {n_pool}"
        )
    n_racks, dpr = topology.n_racks, topology.disks_per_rack
    per_rack = -(-width // n_racks)  # ceil: max co-located roles per rack
    if per_rack > dpr:
        raise ValueError(
            f"width {width} needs {per_rack} disks in one of {n_racks} "
            f"racks but each rack has only {dpr}"
        )
    units = np.asarray(
        [u for u in range(1, dpr) if math.gcd(u, dpr) == 1], dtype=np.int64
    )
    if not len(units):
        units = np.asarray([1], dtype=np.int64)
    s = np.arange(n_stripes, dtype=np.int64)[:, None]
    j = np.arange(width, dtype=np.int64)[None, :]
    epoch = s // (n_racks * dpr)
    sigma = units[epoch % len(units)]
    rack = (s + j) % n_racks
    within = (s // n_racks + (j // n_racks) * sigma + epoch * rack) % dpr
    table = rack * dpr + within
    pm = PlacementMap(n_pool, table, "rack_aware")
    return pm.attach_topology(topology)


_STRATEGIES: Dict[str, Callable[..., PlacementMap]] = {
    "flat": FlatPlacement,
    "declustered": DeclusteredPlacement,
    "d3": D3Placement,
    "random": RandomPlacement,
}

#: strategies that need a datacenter topology to lay stripes out
_TOPO_STRATEGIES: Dict[str, Callable[..., PlacementMap]] = {
    "rack_aware": RackAwarePlacement,
}


def list_placements(include_topology: bool = False) -> List[str]:
    """Registered placement strategy names.

    ``include_topology=True`` adds the strategies that require a
    :class:`~repro.topology.Topology` (e.g. ``rack_aware``).
    """
    names = sorted(_STRATEGIES)
    if include_topology:
        names = sorted({*names, *_TOPO_STRATEGIES})
    return names


def make_placement(
    name: str,
    n_pool: int,
    n_stripes: int,
    width: int,
    seed: int = 0,
    topology=None,
) -> PlacementMap:
    """Build a placement by strategy name (see :func:`list_placements`).

    With ``topology`` given, the tree is attached to the returned map
    (identity leaf mapping), enabling per-link billing; topology-aware
    strategies (``rack_aware``) additionally require it to lay out.
    """
    if name in _TOPO_STRATEGIES:
        if topology is None:
            raise ValueError(
                f"placement {name!r} requires a topology "
                "(pass topology=Topology(...))"
            )
        return _TOPO_STRATEGIES[name](n_pool, n_stripes, width, topology)
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r} "
            f"(choose from {list_placements(include_topology=True)})"
        ) from None
    pm = (
        factory(n_pool, n_stripes, width, seed=seed)
        if name == "random"
        else factory(n_pool, n_stripes, width)
    )
    if topology is not None:
        pm.attach_topology(topology)
    return pm


# ----------------------------------------------------------------------
# rebuild-load analysis (no bytes moved — the planning/benchmark view)
# ----------------------------------------------------------------------
def rebuild_read_loads(
    placement: PlacementMap, dead_disk: int, groups: Iterable[Tuple]
) -> np.ndarray:
    """Element reads each surviving pool disk serves to rebuild ``dead_disk``.

    ``groups`` iterates the rebuild's execution groups, ``(role,
    stripe_ids, scheme)``: the dead disk plays logical ``role`` in those
    stripes, and ``scheme.loads`` (the paper's per-logical-disk read
    loads) is what each of them reads.  The executed rebuild bills the
    same groups chunk by chunk, so planned and executed loads agree by
    construction.
    """
    reads = np.zeros(placement.n_pool, dtype=np.int64)
    for role, stripe_ids, scheme in groups:
        loads = scheme.loads
        if len(loads) != placement.width:
            raise ValueError(
                f"role {role}: expected {placement.width} loads, got {len(loads)}"
            )
        for logical, load in enumerate(loads):
            if load:
                hosts = placement.disk_of_role(stripe_ids, logical)
                reads += load * np.bincount(hosts, minlength=placement.n_pool)
    if reads[dead_disk]:
        raise AssertionError("a recovery scheme read the dead disk")
    return reads
