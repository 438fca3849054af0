"""Pool-wide rebuild: one dead disk, reads declustered across the fleet.

The single-array :class:`~repro.pipeline.engine.RebuildPipeline` rebuilds
a disk that appears in *every* stripe; a pool disk appears only in the
stripes the placement put on it.  The rebuild therefore starts from the
placement's inverse map (disk -> affected stripes), groups the affected
stripes by the logical role the dead disk plays — the rotation-class
chunking the array pipeline uses, lifted to the pool — and drives each
group through one compiled :class:`~repro.codec.batch.BatchReconstructor`
plan.  Reads are billed to the surviving *pool* disks through the
placement table, which is the quantity declustering improves: flat
placement concentrates every read on the dead disk's ``w - 1`` group
mates, a declustered map fans the same reads out pool-wide and the
max-per-disk load (the rebuild-time bound when disks are equally fast)
drops by the declustering factor.

When the placement carries a topology (:meth:`PlacementMap.attach_topology`),
every billed read is *also* billed up the tree through a
:class:`~repro.obs.LinkLoadMap` — per disk, per machine NIC, per rack
uplink — and a :class:`~repro.topology.TopologyAwarePlanner` can replace
the scalar per-role scheme with per-rack-signature schemes that minimise
the lexicographic max-per-{uplink, NIC, disk} load.  The executed billing
must match the planner's analytic loads exactly (``read_loads`` /
``link_read_loads``); the benchmarks enforce that contract.

Each chunk is one kernel pass straight out of the store and straight
into the result: the kernel is handed the whole ``(n_stripes,
n_elements, esz)`` store plus the chunk's stripe ids and gathers the
sources in place, writes each rebuilt row into its place in the result
(``out_rows``), and compares it with the store's dead row while it is
still in cache (``bad_rows``).  No batch, output block, truth copy or
comparison array is staged.  The dead rows are read, but only as
comparison targets: every compiled plan is checked statically to read
none of them as a source (:func:`~repro.codec.batch.check_plan`).  Every
recovered row is thereby verified byte-identical against the store
before the result is returned — a placement bug surfaces as a mismatch
count, never as silent corruption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import obs
from repro.codec.batch import BatchReconstructor, ColumnSet, PlanMemo
from repro.runner import ChunkRunner
from repro.placement.pool import PoolStore
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme


@dataclass
class PoolRebuildResult:
    """Outcome of rebuilding one dead pool disk."""

    dead_disk: int
    rows: np.ndarray               #: recovered rows, ``(affected, k, esz)``
    stripe_ids: np.ndarray         #: affected stripes, ascending
    reads_per_disk: np.ndarray     #: element reads billed per pool disk
    mismatches: int                #: rows that failed byte verification
    stats: Dict[str, Any] = field(default_factory=dict)
    link_loads: Optional["obs.LinkLoadMap"] = None  #: per-link billing, when
                                                    #: a topology is attached

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    @property
    def max_read_load(self) -> int:
        return int(self.reads_per_disk.max())

    @property
    def read_spread(self) -> float:
        """max / mean-over-busy-disks (1.0 = perfectly even fan-out)."""
        busy = self.reads_per_disk[self.reads_per_disk > 0]
        return float(self.max_read_load / busy.mean()) if busy.size else 1.0


class _GroupPlan(NamedTuple):
    """One scheme compiled for a pool rebuild: kernel plan plus billing."""

    recon: BatchReconstructor
    logicals: np.ndarray   #: logical disks the plan reads, ascending
    loads: np.ndarray      #: elements read from each per stripe (float64,
                           #: the weights of one ``np.bincount``)

    @classmethod
    def of(cls, recon: BatchReconstructor) -> "_GroupPlan":
        loads = np.asarray(recon.scheme.loads, dtype=np.int64)
        logicals = np.flatnonzero(loads)
        return cls(recon, logicals, loads[logicals].astype(np.float64))


class _Chunk(NamedTuple):
    """Up to ``chunk_stripes`` affected stripes of one execution group."""

    stripe_ids: np.ndarray  #: int64, ascending
    rows_at: np.ndarray     #: each stripe's row in the result
    bad: np.ndarray         #: per-stripe mismatch flags, a view of the
                            #: rebuild's flag array
    plan: _GroupPlan


class PoolRebuild:
    """Rebuild dead disks of a :class:`~repro.placement.pool.PoolStore`.

    Parameters
    ----------
    store:
        The encoded pool store (placement + stripe bytes).
    chunk_stripes:
        Affected stripes recovered per batch-kernel call.
    planner / plan_cache / algorithm / depth:
        Scheme search configuration, exactly as in
        :class:`~repro.pipeline.engine.RebuildPipeline`.
    topo_planner:
        Optional :class:`~repro.topology.TopologyAwarePlanner`; requires
        the store's placement to have that planner's topology attached.
        Stripes are then grouped by (role, rack signature) and each group
        gets its lexicographically link-optimal scheme.
    throttle:
        Optional admission hook called with each chunk's stripe ids
        before it is recovered (QoS point).
    workers:
        Kernel threads, kept for the engine's lifetime, exactly as in
        :class:`~repro.pipeline.engine.RebuildPipeline`: a thread runs a
        chunk's one kernel pass, which recovers each row into its place
        in the result and verifies it against the store; the calling
        thread admits chunks and bills reads in chunk order.  ``<= 1``
        runs inline.
    """

    def __init__(
        self,
        store: PoolStore,
        chunk_stripes: int = 256,
        planner: Optional[RecoveryPlanner] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        topo_planner=None,
        throttle: Optional[Callable[[np.ndarray], None]] = None,
        workers: int = 2,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_stripes < 1:
            raise ValueError(f"chunk_stripes must be >= 1, got {chunk_stripes}")
        self.store = store
        self.chunk_stripes = chunk_stripes
        self.throttle = throttle
        self.planner = planner or RecoveryPlanner(
            store.code, algorithm=algorithm, depth=depth, plan_cache=plan_cache
        )
        if topo_planner is not None:
            # fail fast on a planner/placement topology mismatch
            store.placement.require_leaf_of_disk(topo_planner.topology)
        self.topo_planner = topo_planner
        self._plans = PlanMemo(_GroupPlan.of)
        self._runner = ChunkRunner(workers, "pool rebuild")

    # ------------------------------------------------------------------
    def stripe_groups(
        self, dead_disk: int
    ) -> Iterator[Tuple[int, np.ndarray, RecoveryScheme]]:
        """``(role, stripe_ids, scheme)`` execution groups for a rebuild.

        The single unit both the executed rebuild and the analytic load
        computations iterate, so their billing agrees by construction.
        With a topology-aware planner attached the groups split further
        by rack signature; otherwise one group per logical role.
        """
        placement = self.store.placement
        if self.topo_planner is not None:
            yield from self.topo_planner.stripe_groups(placement, dead_disk)
            return
        stripes, roles = placement.roles_of_disk(dead_disk)
        for role in np.unique(roles):
            role = int(role)
            sel = np.sort(stripes[roles == role])
            yield role, sel, self.planner.scheme_for_disk(role)

    def read_loads(self, dead_disk: int) -> np.ndarray:
        """Planned per-pool-disk reads for a rebuild (no bytes moved)."""
        from repro.topology.planner import plan_read_loads

        groups = self.stripe_groups(dead_disk)
        return plan_read_loads(groups, self.store.placement, dead_disk)

    def link_read_loads(self, dead_disk: int) -> "obs.LinkLoadMap":
        """Planned per-link loads (requires an attached topology)."""
        from repro.topology.planner import link_loads

        return link_loads(self.store.placement, self.read_loads(dead_disk))

    # ------------------------------------------------------------------
    def rebuild(self, dead_disk: int) -> PoolRebuildResult:
        """Recover every row the dead disk held, billing reads per disk."""
        store = self.store
        placement = store.placement
        if store.stripes is None:
            raise RuntimeError("pool store is empty — call encode_random() first")
        t0 = time.perf_counter()
        groups = [
            (ids, self._plans(role, scheme))
            for role, ids, scheme in self.stripe_groups(dead_disk)
        ]
        all_stripes = np.sort(
            np.concatenate([ids for ids, _ in groups] or [np.empty(0, np.int64)])
        )
        k, esz = store.k_rows, store.element_size
        lay = store.code.layout

        rows = np.empty((len(all_stripes), k, esz), dtype=np.uint8)
        bad = np.empty(len(all_stripes), dtype=bool)
        reads = np.zeros(placement.n_pool, dtype=np.int64)
        mismatches = 0
        chunks: List[_Chunk] = []
        done = 0  # stripes already chunked: the next chunk's flags start here
        for group_ids, plan in groups:
            group_ids = np.ascontiguousarray(group_ids, dtype=np.int64)
            rows_at = np.searchsorted(all_stripes, group_ids)
            for lo in range(0, len(group_ids), self.chunk_stripes):
                hi = min(lo + self.chunk_stripes, len(group_ids))
                chunks.append(_Chunk(
                    group_ids[lo:hi], rows_at[lo:hi],
                    bad[done : done + hi - lo], plan,
                ))
                done += hi - lo
        stripes = ColumnSet(store.stripes)  # marshalled once per rebuild

        def work(chunk: _Chunk) -> int:
            # one kernel pass: gathered out of the store, written into its
            # rows of the result, verified against the dead rows
            chunk.plan.recon.recover_batch_into(
                stripes, rows, stripe_ids=chunk.stripe_ids,
                out_rows=chunk.rows_at, bad_rows=chunk.bad,
            )
            return int(np.count_nonzero(chunk.bad))

        def deliver(chunk: _Chunk, n_bad: int) -> None:
            nonlocal mismatches, reads
            mismatches += n_bad
            # pool disk hosting each logical disk the plan reads, per
            # stripe: one table lookup, one weighted count
            plan = chunk.plan
            hosts = placement.disk_of_role(chunk.stripe_ids[:, None], plan.logicals)
            reads += np.bincount(
                hosts.reshape(-1),
                weights=np.broadcast_to(plan.loads, hosts.shape).reshape(-1),
                minlength=placement.n_pool,
            ).astype(np.int64)
            obs.count("placement.chunks")

        def admit(chunk: _Chunk) -> None:
            self.throttle(chunk.stripe_ids)

        with obs.span(
            "placement.rebuild",
            placement=placement.name,
            pool=placement.n_pool,
            affected=len(all_stripes),
        ):
            self._runner.run(
                chunks, work, deliver,
                admit=admit if self.throttle is not None else None,
            )
        wall_s = time.perf_counter() - t0

        loadmap = obs.DiskLoadMap(placement.n_pool)
        loadmap.add_vector(reads)
        loadmap.publish("placement.rebuild_reads")
        linkmap = None
        if placement.topology is not None:
            linkmap = obs.LinkLoadMap(placement.topology)
            per_leaf = np.zeros(placement.topology.n_disks, dtype=np.int64)
            per_leaf[placement.leaf_of_disk] = reads
            linkmap.add_vector(per_leaf)
            linkmap.publish("placement.rebuild_links")
        obs.count("placement.rebuilds")
        obs.count("placement.stripes", len(all_stripes))
        rebuilt_bytes = rows.nbytes
        stats = {
            "placement": placement.name,
            "n_pool": placement.n_pool,
            "width": lay.n_disks,
            "affected_stripes": int(len(all_stripes)),
            "groups": len(groups),
            "chunks": len(chunks),
            "chunk_stripes": self.chunk_stripes,
            "rebuilt_bytes": int(rebuilt_bytes),
            "wall_s": wall_s,
            "rebuilt_mb_s": (rebuilt_bytes / 2**20) / wall_s if wall_s > 0 else 0.0,
            "read_load": loadmap.summary(),
        }
        if linkmap is not None:
            stats["link_load"] = linkmap.summary()
            stats["topology"] = placement.topology.spec()
        return PoolRebuildResult(
            dead_disk=dead_disk,
            rows=rows,
            stripe_ids=all_stripes,
            reads_per_disk=loadmap.reads,
            mismatches=mismatches,
            stats=stats,
            link_loads=linkmap,
        )


def rebuild_pool_disk(
    store: PoolStore,
    dead_disk: int,
    chunk_stripes: int = 256,
    plan_cache: Optional[SchemePlanCache] = None,
    algorithm: str = "u",
    depth: int = 1,
    topo_planner=None,
) -> PoolRebuildResult:
    """One-call pool rebuild (see :class:`PoolRebuild`)."""
    engine = PoolRebuild(
        store,
        chunk_stripes=chunk_stripes,
        plan_cache=plan_cache,
        algorithm=algorithm,
        depth=depth,
        topo_planner=topo_planner,
    )
    return engine.rebuild(dead_disk)


def compare_placements(
    store_factory: Callable[[str], PoolStore],
    names: List[str],
    dead_disk: int = 0,
    **kwargs: Any,
) -> Dict[str, PoolRebuildResult]:
    """Rebuild the same dead disk under several placements (benchmark core)."""
    return {
        name: rebuild_pool_disk(store_factory(name), dead_disk, **kwargs)
        for name in names
    }
