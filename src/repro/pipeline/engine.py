"""High-throughput rebuild engine: zero-copy parallel stripe pipeline.

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
3. with ``workers >= 2`` the chunks are spread over worker processes
   forked for the call: they inherit the disk image read-only through
   ``fork`` and write into a rebuilt image allocated as an anonymous
   shared mapping, so only ``(chunk_id, rotation, start, n_stripes,
   logical_disk)`` descriptors cross the pipes.  The parent keeps
   throttle admission, the in-flight bound (two chunks per worker), the
   ordered ``on_chunk`` delivery and the read billing.

With ``workers <= 1`` (or fewer than two chunks, or no ``fork`` on the
platform) the same per-chunk calls run inline, and the output is
byte-identical by construction.  The per-stripe oracle both paths are
checked against is :meth:`~repro.codec.image.ArrayImageCodec.recover_disk`.

Reading in place makes the failed disk's rows addressable, so every
compiled plan is checked once, statically, to read none of them
(:func:`~repro.codec.batch.check_plan`).

Planning is delegated to :class:`~repro.recovery.planner.RecoveryPlanner`,
optionally backed by a persistent
:class:`~repro.recovery.plancache.SchemePlanCache` so repeated rebuilds of
the same code skip the C/U search entirely.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

import numpy as np

from repro import obs
from repro.codec.batch import BatchReconstructor, check_plan
from repro.codec.image import ArrayImageCodec
from repro.pipeline.chunks import StripeChunk, iter_chunks
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.scheme import RecoveryScheme

#: workers inherit the disk image through fork; without it they run inline
_FORK = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else None
#: chunks a worker holds at once: one running, one queued behind it
_PER_WORKER = 2


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
    disks4: np.ndarray,
    rebuilt3: np.ndarray,
    rotation: int,
    start: int,
    n_stripes: int,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """A chunk's input columns and output rows, as views (nothing copied).

    ``disks4`` is the image as ``(n_disks, n_stripes, k, esz)`` and
    ``rebuilt3`` the rebuilt disk as ``(n_stripes, k, esz)``.  A chunk is
    ``n_stripes`` stripes of one rotation class, ``start, start + n, ...``
    for ``n`` disks, so logical disk ``l`` of every stripe in it lives on
    physical disk ``(l + rotation) % n``.
    """
    n = disks4.shape[0]
    rows = slice(start, start + n * n_stripes, n)
    cols = [disks4[(logical + rotation) % n, rows] for logical in range(n)]
    return cols, rebuilt3[rows]


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    conn,
    inherited,
    disks4: np.ndarray,
    rebuilt3: np.ndarray,
    compiled: Dict[int, BatchReconstructor],
) -> None:
    """Pipeline worker: recover chunks in place until poisoned.

    Everything arrives through ``fork``: the image it reads, the shared
    rebuilt image it writes, and the compiled, checked plans (logical disk
    -> :class:`BatchReconstructor`).  Only descriptors arrive on ``conn``.
    ``inherited`` are the parent's ends of every pipe forked so far; they
    are closed here so that the parent's death reaches ``conn`` as EOF.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent is gone
            return
        if task is None:
            return
        chunk_id, rotation, start, n_stripes, logical_disk = task
        try:
            cols, rows = _chunk_views(disks4, rebuilt3, rotation, start, n_stripes)
            compiled[logical_disk].recover_batch_into(cols, rows)
        except Exception as exc:  # surface, don't hang the parent
            # and stay up until told to stop: exiting here could make the
            # parent's next send fail before it reads this report
            conn.send(("error", worker_id, chunk_id, repr(exc)))
            continue
        conn.send(("done", worker_id, chunk_id))


def _raise_dead(worker_id: int, proc) -> NoReturn:
    """Report a worker that exited without being told to."""
    proc.join(timeout=5)
    raise RuntimeError(
        f"pipeline worker {worker_id} (pid {proc.pid}) died with exit code "
        f"{proc.exitcode}"
    )


def _shared_empty(shape: Tuple[int, ...]) -> np.ndarray:
    """A uint8 array in an anonymous shared mapping.

    Written by forked workers, visible to the parent: no name, nothing to
    unlink, nothing for a resource tracker to track.  The mapping lives
    as long as the array does.
    """
    nbytes = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, nbytes))  # MAP_SHARED | MAP_ANONYMOUS
    return np.frombuffer(buf, dtype=np.uint8, count=nbytes).reshape(shape)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
class RebuildPipeline:
    """Streaming multi-process rebuild of one failed physical disk.

    Parameters
    ----------
    codec:
        The array geometry (code, element size, stripe count, rotation).
    workers:
        Worker processes.  ``<= 1`` runs the chunked batch path inline.
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
        work without touching anything else — this is the admission-control
        point the QoS scheduler in :mod:`repro.serving` plugs into.
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
        self._plans: Dict[Tuple, BatchReconstructor] = {}

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

    def _compile(self, role: int, scheme: RecoveryScheme) -> BatchReconstructor:
        """The compiled, checked plan for rebuilding ``role`` with ``scheme``.

        Memoised on the plan's full semantics, so each distinct scheme is
        compiled and checked once per engine, not once per rebuild.
        """
        key = (role, scheme.failed_mask, tuple(scheme.equations), scheme.read_mask)
        recon = self._plans.get(key)
        if recon is None:
            recon = BatchReconstructor(scheme)
            check_plan(recon, role)
            self._plans[key] = recon
        return recon

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
        compiled = {d: self._compile(d, s) for d, s in schemes.items()}
        chunks = list(iter_chunks(ns, n, failed_physical, self.chunk_stripes))
        shape = (ns * k, esz)
        if self.workers <= 1 or len(chunks) < 2 or _FORK is None:
            mode, run = "inline-batch", self._rebuild_inline
            rebuilt = np.empty(shape, dtype=np.uint8)
        else:
            mode, run = "pipeline", self._rebuild_parallel
            # forked workers must write where the parent can see it
            rebuilt = _shared_empty(shape)
        reads_per_disk = [0] * n

        t0 = time.perf_counter()
        # views only: a C-contiguous image reshapes without a copy
        run(disks.reshape(n, ns, k, esz), compiled, schemes, chunks,
            rebuilt.reshape(ns, k, esz), reads_per_disk)
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

    # ------------------------------------------------------------------
    # single-process path
    # ------------------------------------------------------------------
    def _rebuild_inline(
        self,
        disks4: np.ndarray,
        compiled: Dict[int, BatchReconstructor],
        schemes: Dict[int, RecoveryScheme],
        chunks: List[StripeChunk],
        rebuilt3: np.ndarray,
        reads_per_disk: List[int],
    ) -> None:
        """Chunked batch path in this process (the workers<=1 fallback)."""
        for chunk in chunks:
            if self.throttle is not None:
                self.throttle(chunk)
            cols, rows = _chunk_views(
                disks4, rebuilt3, chunk.rotation, int(chunk.stripe_ids[0]),
                chunk.n_stripes,
            )
            compiled[chunk.logical_disk].recover_batch_into(cols, rows)
            self._bill_reads(reads_per_disk, chunk, schemes[chunk.logical_disk])
            if self.on_chunk is not None:
                self.on_chunk(chunk, rows)
            obs.count("pipeline.chunks")

    # ------------------------------------------------------------------
    # multi-process path
    # ------------------------------------------------------------------
    def _rebuild_parallel(
        self,
        disks4: np.ndarray,
        compiled: Dict[int, BatchReconstructor],
        schemes: Dict[int, RecoveryScheme],
        chunks: List[StripeChunk],
        rebuilt3: np.ndarray,
        reads_per_disk: List[int],
    ) -> None:
        n_workers = min(self.workers, len(chunks))
        conns: List[connection.Connection] = []
        procs = []
        try:
            for w in range(n_workers):
                ours, theirs = _FORK.Pipe()
                conns.append(ours)
                proc = _FORK.Process(
                    target=_worker_main,
                    args=(w, theirs, list(conns), disks4, rebuilt3, compiled),
                    daemon=True,
                )
                proc.start()
                theirs.close()
                procs.append(proc)
            sentinels = [p.sentinel for p in procs]

            pending = deque(chunks)
            held = [0] * n_workers       # chunks dispatched to each worker
            finished = set()
            next_done = 0
            with obs.span(
                "pipeline.parallel", workers=n_workers, chunks=len(chunks)
            ):
                while next_done < len(chunks):
                    for w in range(n_workers):
                        while pending and held[w] < _PER_WORKER:
                            chunk = pending.popleft()
                            if self.throttle is not None:
                                self.throttle(chunk)
                            try:
                                conns[w].send((
                                    chunk.chunk_id, chunk.rotation,
                                    int(chunk.stripe_ids[0]), chunk.n_stripes,
                                    chunk.logical_disk,
                                ))
                            except OSError:
                                _raise_dead(w, procs[w])
                            held[w] += 1
                            obs.gauge("pipeline.inflight", sum(held))
                    ready = connection.wait(conns + sentinels)
                    for w in range(n_workers):
                        if conns[w] not in ready and sentinels[w] not in ready:
                            continue
                        # a worker that exited has closed its end, so this
                        # returns a message it left behind or fails at once
                        try:
                            msg = conns[w].recv()
                        except (EOFError, OSError):
                            _raise_dead(w, procs[w])
                        if msg[0] == "error":
                            _, _, chunk_id, detail = msg
                            raise RuntimeError(
                                f"pipeline worker {w} failed on chunk "
                                f"{chunk_id}: {detail}"
                            )
                        held[w] -= 1
                        finished.add(msg[2])
                    # ordered delivery: chunks are dispatched in id order,
                    # so the lowest unfinished id is always in flight and
                    # results can never pile up out of order and stall
                    while next_done in finished:
                        finished.remove(next_done)
                        chunk = chunks[next_done]
                        self._bill_reads(
                            reads_per_disk, chunk, schemes[chunk.logical_disk]
                        )
                        if self.on_chunk is not None:
                            _, rows = _chunk_views(
                                disks4, rebuilt3, chunk.rotation,
                                int(chunk.stripe_ids[0]), chunk.n_stripes,
                            )
                            self.on_chunk(chunk, rows)
                        next_done += 1
                        obs.count("pipeline.chunks")
            for conn in conns:
                conn.send(None)
            for p in procs:
                p.join(timeout=30)
        finally:
            for p in procs:
                if p.is_alive():  # error unwind only
                    p.terminate()
                    p.join(timeout=5)
            for conn in conns:
                conn.close()


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
