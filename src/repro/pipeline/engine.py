"""High-throughput rebuild engine: zero-copy threaded stripe pipeline.

``repro.pipeline`` is the data-plane counterpart of the planning layer: it
takes a code, a failed physical disk and an array image and drives the
whole rebuild as a streaming pipeline —

1. :func:`~repro.pipeline.chunks.iter_chunks` slices the stripe space into
   homogeneous batches (one logical failed role, one compiled plan each);
2. every chunk is one
   :meth:`~repro.codec.batch.BatchReconstructor.recover_batch_into` call
   that reads the survivors **in place** — one strided view per logical
   disk of the disk image, rotated to the chunk's rotation class — and
   XORs the recovered rows **in place** into a strided view of the rebuilt
   image.  No stripe byte is gathered, staged or patched back; only the
   elements the plan names are ever touched;
3. with ``workers >= 2`` the kernel calls run on the engine's persistent
   worker threads (:class:`~repro.runner.ChunkRunner`): the
   kernel releases the GIL, so they XOR in parallel over the same disk
   image into the same private rebuilt image.  The calling thread keeps
   throttle admission, the in-flight bound (two chunks per worker), the
   ordered ``on_chunk`` delivery and the read billing.

With ``workers <= 1`` (or fewer than two chunks) the same per-chunk calls
run inline, and the output is byte-identical by construction.  The
per-stripe oracle both paths are checked against is
:meth:`~repro.codec.image.ArrayImageCodec.recover_disk`.

Reading in place makes the failed disk's rows addressable, so every
compiled plan is checked once, statically, to read none of them
(:func:`~repro.codec.batch.check_plan`).

Planning is delegated to :class:`~repro.recovery.planner.RecoveryPlanner`,
optionally backed by a persistent
:class:`~repro.recovery.plancache.SchemePlanCache` so repeated rebuilds of
the same code skip the C/U search entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.codec.batch import PlanMemo
from repro.codec.image import ArrayImageCodec
from repro.pipeline.chunks import StripeChunk, iter_chunks
from repro.runner import ChunkRunner
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme


@dataclass
class RebuildResult:
    """Outcome of one whole-disk rebuild."""

    image: np.ndarray                 #: rebuilt disk rows ``(n_stripes*k, esz)``
    reads_per_disk: List[int]         #: element reads billed per physical disk
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def mb_per_s(self) -> float:
        return self.stats.get("rebuilt_mb_s", 0.0)


def _chunk_views(
    disks4: np.ndarray, rebuilt3: np.ndarray, chunk: StripeChunk
) -> Tuple[List[np.ndarray], np.ndarray]:
    """A chunk's input columns and output rows, as views (nothing copied).

    ``disks4`` is the image as ``(n_disks, n_stripes, k, esz)`` and
    ``rebuilt3`` the rebuilt disk as ``(n_stripes, k, esz)``.  A chunk is
    stripes of one rotation class, ``start, start + n, ...`` for ``n``
    disks, so logical disk ``l`` of every stripe in it lives on physical
    disk ``(l + rotation) % n``.
    """
    n = disks4.shape[0]
    start = int(chunk.stripe_ids[0])
    rows = slice(start, start + n * chunk.n_stripes, n)
    cols = [disks4[(logical + chunk.rotation) % n, rows] for logical in range(n)]
    return cols, rebuilt3[rows]


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
class RebuildPipeline:
    """Streaming multi-threaded rebuild of one failed physical disk.

    Parameters
    ----------
    codec:
        The array geometry (code, element size, stripe count, rotation).
    workers:
        Kernel threads, kept for the engine's lifetime.  ``<= 1`` runs
        the chunked batch path inline.
    chunk_stripes:
        Stripes per chunk (the batch size workers XOR at once).
    planner:
        Optional pre-built planner (its cached schemes are reused).
    plan_cache:
        Optional persistent plan store handed to a freshly built planner.
    algorithm / depth:
        Scheme search configuration when no planner is supplied.
    throttle:
        Optional hook called with each :class:`StripeChunk` *before* it is
        recovered or dispatched.  Blocking inside the hook delays rebuild
        work without touching anything else — the serving engine's
        :class:`~repro.serving.sharded.BoardThrottle` admits chunks here
        (its ``after_chunk`` rides on ``on_chunk``).
    on_chunk:
        Optional hook called after each chunk's recovered rows have landed
        in the rebuilt image, with ``(chunk, rows)`` where ``rows`` is a
        ``(n_stripes, k_rows, element_size)`` view valid only for the
        duration of the callback (copy to keep).  Chunks are
        delivered in chunk-id order.
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        workers: int = 2,
        chunk_stripes: int = 64,
        planner: Optional[RecoveryPlanner] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        throttle: Optional[Callable[[StripeChunk], None]] = None,
        on_chunk: Optional[Callable[[StripeChunk, np.ndarray], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if chunk_stripes < 1:
            raise ValueError(f"chunk_stripes must be >= 1, got {chunk_stripes}")
        self.codec = codec
        self.workers = workers
        self.chunk_stripes = min(chunk_stripes, max(1, codec.n_stripes))
        self.throttle = throttle
        self.on_chunk = on_chunk
        self.planner = planner or RecoveryPlanner(
            codec.code, algorithm=algorithm, depth=depth, plan_cache=plan_cache
        )
        self._plans = PlanMemo()
        self._runner = ChunkRunner(workers, "pipeline")

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _schemes_for(self, failed_physical: int) -> Dict[int, RecoveryScheme]:
        """One plan per logical role the failed disk plays across stripes."""
        lay = self.codec.code.layout
        needed = {
            (failed_physical - (s % lay.n_disks)) % lay.n_disks
            for s in range(self.codec.n_stripes)
        }
        with obs.span("pipeline.plan", roles=len(needed)):
            return {d: self.planner.scheme_for_disk(d) for d in sorted(needed)}

    def _bill_reads(
        self,
        reads_per_disk: List[int],
        chunk: StripeChunk,
        scheme: RecoveryScheme,
    ) -> None:
        lay = self.codec.code.layout
        for logical, load in enumerate(scheme.loads):
            if load:
                phys = (logical + chunk.rotation) % lay.n_disks
                reads_per_disk[phys] += load * chunk.n_stripes

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def rebuild(
        self,
        disks: np.ndarray,
        failed_physical: int,
        patch: bool = False,
    ) -> RebuildResult:
        """Rebuild ``disks[failed_physical]`` from the survivors.

        The failed disk's stored rows are never read.  ``patch=True``
        additionally writes the rebuilt rows back into ``disks`` in place
        (hot-spare semantics).
        """
        lay = self.codec.code.layout
        n, k = lay.n_disks, lay.k_rows
        ns, esz = self.codec.n_stripes, self.codec.element_size
        if not 0 <= failed_physical < n:
            raise IndexError(f"physical disk {failed_physical} out of range")
        if disks.shape != (n, ns * k, esz):
            raise ValueError(f"disks shape {disks.shape} != {(n, ns * k, esz)}")
        if disks.dtype != np.uint8:
            raise ValueError(f"disks dtype {disks.dtype} != uint8")

        schemes = self._schemes_for(failed_physical)
        compiled = {d: self._plans(d, s) for d, s in schemes.items()}
        chunks = list(iter_chunks(ns, n, failed_physical, self.chunk_stripes))
        mode = "pipeline" if self._runner.threaded(len(chunks)) else "inline-batch"
        rebuilt = np.empty((ns * k, esz), dtype=np.uint8)
        # views only: a C-contiguous image reshapes without a copy
        disks4, rebuilt3 = disks.reshape(n, ns, k, esz), rebuilt.reshape(ns, k, esz)
        reads_per_disk = [0] * n

        def work(chunk: StripeChunk) -> np.ndarray:
            cols, rows = _chunk_views(disks4, rebuilt3, chunk)
            return compiled[chunk.logical_disk].recover_batch_into(cols, rows)

        def deliver(chunk: StripeChunk, rows: np.ndarray) -> None:
            self._bill_reads(reads_per_disk, chunk, schemes[chunk.logical_disk])
            if self.on_chunk is not None:
                self.on_chunk(chunk, rows)
            obs.count("pipeline.chunks")

        t0 = time.perf_counter()
        self._runner.run(chunks, work, deliver, admit=self.throttle)
        wall_s = time.perf_counter() - t0

        if patch:
            disks[failed_physical] = rebuilt
        rebuilt_bytes = rebuilt.nbytes
        obs.count("pipeline.rebuilds")
        obs.count("pipeline.stripes", self.codec.n_stripes)
        obs.count("pipeline.bytes", rebuilt_bytes)
        stats = {
            "mode": mode,
            "workers": self.workers if mode == "pipeline" else 1,
            "chunk_stripes": self.chunk_stripes,
            "chunks": len(chunks),
            "stripes": self.codec.n_stripes,
            "rebuilt_bytes": rebuilt_bytes,
            "wall_s": wall_s,
            "rebuilt_mb_s": (rebuilt_bytes / 2**20) / wall_s if wall_s > 0 else 0.0,
            "plan_cache": (
                self.planner.plan_cache.stats()
                if self.planner.plan_cache is not None
                else None
            ),
        }
        return RebuildResult(image=rebuilt, reads_per_disk=reads_per_disk,
                             stats=stats)


# ----------------------------------------------------------------------
# convenience wrapper
# ----------------------------------------------------------------------
def rebuild_disk(
    codec: ArrayImageCodec,
    disks: np.ndarray,
    failed_physical: int,
    workers: int = 2,
    chunk_stripes: int = 64,
    plan_cache: Optional[SchemePlanCache] = None,
    algorithm: str = "u",
    depth: int = 1,
) -> RebuildResult:
    """One-call rebuild of a failed physical disk (see :class:`RebuildPipeline`)."""
    pipe = RebuildPipeline(
        codec,
        workers=workers,
        chunk_stripes=chunk_stripes,
        plan_cache=plan_cache,
        algorithm=algorithm,
        depth=depth,
    )
    return pipe.rebuild(disks, failed_physical)
