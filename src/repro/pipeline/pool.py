"""The rebuild engine: one dead disk, its rows recovered, verified, billed.

A rebuild starts from the placement's inverse map (disk -> affected
stripes), groups the affected stripes by the logical role the dead disk
plays, and drives each group through one compiled
:class:`~repro.codec.batch.BatchReconstructor` plan.  Reads are billed to
the surviving disks through the placement table, which is the quantity
declustering improves: flat placement concentrates every read on the
dead disk's ``w - 1`` group mates, a declustered map fans the same reads
out pool-wide and the max-per-disk load (the rebuild-time bound when
disks are equally fast) drops by the declustering factor.

A rotated array is the smallest case of a placed pool: role ``l`` of
stripe ``s`` sits on disk ``(l + s) mod n``, which is
:func:`~repro.placement.FlatPlacement` with ``n_pool = w``.
:class:`~repro.pipeline.engine.RebuildPipeline` rebuilds a disk image as
exactly that one-group pool; only where the bytes are read from differs
(:class:`PoolRebuild` reads a stripe-major store, the array its disk
image in place).

When the placement carries a topology (:meth:`PlacementMap.attach_topology`),
every billed read is *also* billed up the tree through a
:class:`~repro.obs.LinkLoadMap` — per disk, per machine NIC, per rack
uplink — and a :class:`~repro.topology.TopologyAwarePlanner` can replace
the scalar per-role scheme with per-rack-signature schemes that minimise
the lexicographic max-per-{uplink, NIC, disk} load.  The executed billing
must match the analytic loads exactly (``read_loads`` /
``link_read_loads``); the benchmarks enforce that contract.

Each chunk is one kernel pass straight out of the stored bytes and
straight into the result: the kernel is handed the group's columns plus
the chunk's stripe ids and gathers the sources in place, writes each
rebuilt row into its place in the result (``out_rows``), and compares it
with the stored dead row while it is still in cache (``bad_rows``).  No
batch, output block, truth copy or comparison array is staged.  The dead
rows are read, but only as comparison targets: every compiled plan is
checked statically to read none of them as a source
(:func:`~repro.codec.batch.check_plan`).  Every recovered stripe is
thereby verified byte-identical against the stored bytes before the
result is returned — a placement bug surfaces as a mismatch count, never
as silent corruption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.codec.batch import ColumnSet, CompiledPlan, PlanMemo
from repro.placement.map import rebuild_read_loads
from repro.placement.pool import PoolStore
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme
from repro.runner import ChunkRunner


@dataclass
class RebuildResult:
    """Outcome of rebuilding one dead disk."""

    rows: np.ndarray               #: recovered rows, ``(affected, k, esz)``
    stripe_ids: np.ndarray         #: affected stripes, ascending
    reads_per_disk: np.ndarray     #: element reads billed per disk
    mismatches: int                #: stripes that failed byte verification
    stats: Dict[str, Any] = field(default_factory=dict)
    link_loads: Optional["obs.LinkLoadMap"] = None  #: per-link billing, when
                                                    #: a topology is attached

    @property
    def image(self) -> np.ndarray:
        """The rebuilt rows as ``(affected * k, esz)``, a view of ``rows``
        (an array rebuild affects every stripe: the rebuilt disk image)."""
        return self.rows.reshape(-1, self.rows.shape[-1])

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    @property
    def mb_per_s(self) -> float:
        return self.stats.get("rebuilt_mb_s", 0.0)

    @property
    def max_read_load(self) -> int:
        return int(self.reads_per_disk.max())

    @property
    def read_spread(self) -> float:
        """max / mean-over-busy-disks (1.0 = perfectly even fan-out)."""
        busy = self.reads_per_disk[self.reads_per_disk > 0]
        return float(self.max_read_load / busy.mean()) if busy.size else 1.0


@dataclass(frozen=True, eq=False)
class RebuildChunk:
    """Up to ``chunk_stripes`` affected stripes of one execution group.

    The unit of one kernel call, and what both hooks receive.
    """

    chunk_id: int           #: dense, in emission (and delivery) order
    role: int               #: logical role the dead disk plays in them
    stripe_ids: np.ndarray  #: int64, ascending
    plan: CompiledPlan      #: the group's compiled plan and its billing
    columns: ColumnSet      #: the bytes the group's stripes are read from
    rows_at: np.ndarray     #: each stripe's row in the result
    bad: np.ndarray         #: per-stripe mismatch flags, a view of the
                            #: rebuild's flag array

    @property
    def n_stripes(self) -> int:
        return len(self.stripe_ids)


class PoolRebuild:
    """Rebuild dead disks of a :class:`~repro.placement.pool.PoolStore`.

    Parameters
    ----------
    store:
        The encoded pool store (placement + stripe bytes).
    chunk_stripes:
        Affected stripes recovered per batch-kernel call.
    planner:
        Optional pre-built planner (its cached schemes are reused).
    plan_cache:
        Optional persistent plan store handed to a freshly built planner,
        so repeated rebuilds of the same code skip the C/U search.
    algorithm / depth:
        Scheme search configuration when no planner is supplied.
    topo_planner:
        Optional :class:`~repro.topology.TopologyAwarePlanner`; requires
        the store's placement to have that planner's topology attached.
        Stripes are then grouped by (role, rack signature) and each group
        gets its lexicographically link-optimal scheme.
    throttle:
        Optional hook called with each :class:`RebuildChunk` *before* it
        is recovered or dispatched (the QoS point).  Blocking inside the
        hook delays rebuild work without touching anything else.
    workers:
        Kernel threads, kept for the engine's lifetime
        (:class:`~repro.runner.ChunkRunner`): a thread runs a chunk's one
        kernel pass, which recovers each row into its place in the result
        and verifies it; the calling thread admits chunks, bills reads
        and delivers ``on_chunk`` in chunk order.  ``<= 1`` runs inline,
        with byte-identical output.
    on_chunk:
        Optional hook called after each chunk's rows have landed in the
        result, with ``(chunk, rows)`` where ``rows`` is the chunk's
        ``(n_stripes, k_rows, element_size)`` recovered rows.  Chunks are
        delivered in chunk-id order.
    """

    #: names the engine in a failed worker's error
    _label = "pool rebuild"

    def __init__(
        self,
        store: PoolStore,
        chunk_stripes: int = 256,
        planner: Optional[RecoveryPlanner] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        topo_planner=None,
        throttle: Optional[Callable[[RebuildChunk], None]] = None,
        workers: int = 2,
        on_chunk: Optional[Callable[[RebuildChunk, np.ndarray], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_stripes < 1:
            raise ValueError(f"chunk_stripes must be >= 1, got {chunk_stripes}")
        self.store = store
        self.workers = workers
        self.chunk_stripes = chunk_stripes
        self.throttle = throttle
        self.on_chunk = on_chunk
        self.planner = planner or RecoveryPlanner(
            store.code, algorithm=algorithm, depth=depth, plan_cache=plan_cache
        )
        if topo_planner is not None:
            # fail fast on a planner/placement topology mismatch
            store.placement.require_leaf_of_disk(topo_planner.topology)
        self.topo_planner = topo_planner
        self._plans = PlanMemo()
        self._runner = ChunkRunner(workers, self._label)

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
        for role, stripe_ids in placement.role_groups(dead_disk):
            yield role, stripe_ids, self.planner.scheme_for_disk(role)

    def read_loads(self, dead_disk: int) -> np.ndarray:
        """Planned per-disk reads for a rebuild (no bytes moved)."""
        return rebuild_read_loads(
            self.store.placement, dead_disk, self.stripe_groups(dead_disk)
        )

    def link_read_loads(self, dead_disk: int) -> "obs.LinkLoadMap":
        """Planned per-link loads (requires an attached topology)."""
        from repro.topology.planner import link_loads

        return link_loads(self.store.placement, self.read_loads(dead_disk))

    # ------------------------------------------------------------------
    def rebuild(self, dead_disk: int) -> RebuildResult:
        """Recover every row the dead disk held, billing reads per disk."""
        if self.store.stripes is None:
            raise RuntimeError("pool store is empty — call encode_random() first")
        stripes = ColumnSet(self.store.stripes)  # marshalled once per rebuild
        return self._rebuild(dead_disk, lambda stripe_ids: stripes)

    def _rebuild(
        self, dead_disk: int, columns_of: Callable[[np.ndarray], ColumnSet]
    ) -> RebuildResult:
        """The rebuild both entry points run.

        ``columns_of(stripe_ids)`` is the
        :class:`~repro.codec.batch.ColumnSet` one execution group's
        stripes are read from: the only thing the engine needs to know
        about how the bytes are stored.
        """
        store = self.store
        placement = store.placement
        t0 = time.perf_counter()
        groups = [
            (role, ids, self._plans(role, scheme))
            for role, ids, scheme in self.stripe_groups(dead_disk)
        ]
        all_stripes = np.sort(
            np.concatenate([ids for _, ids, _ in groups] or [np.empty(0, np.int64)])
        )
        rows = np.empty(
            (len(all_stripes), store.k_rows, store.element_size), dtype=np.uint8
        )
        bad = np.empty(len(all_stripes), dtype=bool)
        chunks: List[RebuildChunk] = []
        done = 0  # stripes already chunked: the next chunk's flags start here
        for role, group_ids, plan in groups:
            group_ids = np.ascontiguousarray(group_ids, dtype=np.int64)
            rows_at = np.searchsorted(all_stripes, group_ids)
            columns = columns_of(group_ids)
            for lo in range(0, len(group_ids), self.chunk_stripes):
                hi = min(lo + self.chunk_stripes, len(group_ids))
                chunks.append(RebuildChunk(
                    len(chunks), role, group_ids[lo:hi], plan, columns,
                    rows_at[lo:hi], bad[done : done + hi - lo],
                ))
                done += hi - lo
        mode = "pipeline" if self._runner.threaded(len(chunks)) else "inline-batch"
        reads = np.zeros(placement.n_pool, dtype=np.int64)

        def work(chunk: RebuildChunk) -> None:
            # one kernel pass: gathered in place, written into its rows of
            # the result, verified against the stored dead rows
            chunk.plan.recon.recover_batch_into(
                chunk.columns, rows, stripe_ids=chunk.stripe_ids,
                out_rows=chunk.rows_at, bad_rows=chunk.bad,
            )

        def deliver(chunk: RebuildChunk, _: None) -> None:
            nonlocal reads
            # disk hosting each logical disk the plan reads, per stripe:
            # one table lookup, one weighted count
            plan = chunk.plan
            hosts = placement.disk_of_role(chunk.stripe_ids[:, None], plan.logicals)
            reads += np.bincount(
                hosts.reshape(-1),
                weights=np.broadcast_to(plan.loads, hosts.shape).reshape(-1),
                minlength=placement.n_pool,
            ).astype(np.int64)
            if self.on_chunk is not None:
                self.on_chunk(chunk, rows[chunk.rows_at])
            obs.count("pipeline.chunks")

        with obs.span(
            "pipeline.rebuild",
            placement=placement.name,
            pool=placement.n_pool,
            affected=len(all_stripes),
        ):
            self._runner.run(chunks, work, deliver, admit=self.throttle)
        wall_s = time.perf_counter() - t0

        loadmap = obs.DiskLoadMap(placement.n_pool)
        loadmap.add_vector(reads)
        loadmap.publish("pipeline.rebuild_reads")
        linkmap = None
        if placement.topology is not None:
            linkmap = obs.LinkLoadMap(placement.topology)
            per_leaf = np.zeros(placement.topology.n_disks, dtype=np.int64)
            per_leaf[placement.leaf_of_disk] = reads
            linkmap.add_vector(per_leaf)
            linkmap.publish("pipeline.rebuild_links")
        obs.count("pipeline.rebuilds")
        obs.count("pipeline.stripes", len(all_stripes))
        obs.count("pipeline.bytes", rows.nbytes)
        stats = {
            "mode": mode,
            "workers": self.workers if mode == "pipeline" else 1,
            "placement": placement.name,
            "construction": placement.construction,
            "n_pool": placement.n_pool,
            "width": placement.width,
            "affected_stripes": int(len(all_stripes)),
            "groups": len(groups),
            "chunks": len(chunks),
            "chunk_stripes": self.chunk_stripes,
            "rebuilt_bytes": int(rows.nbytes),
            "wall_s": wall_s,
            "rebuilt_mb_s": (rows.nbytes / 2**20) / wall_s if wall_s > 0 else 0.0,
            "read_load": loadmap.summary(),
            "plan_cache": (
                self.planner.plan_cache.stats()
                if self.planner.plan_cache is not None
                else None
            ),
        }
        if linkmap is not None:
            stats["link_load"] = linkmap.summary()
            stats["topology"] = placement.topology.spec()
        return RebuildResult(
            rows=rows,
            stripe_ids=all_stripes,
            reads_per_disk=loadmap.reads,
            mismatches=int(np.count_nonzero(bad)),
            stats=stats,
            link_loads=linkmap,
        )
