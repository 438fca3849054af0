"""Concurrent degraded-read serving on top of a rebuilding array.

:class:`ServingEngine` is the online half of the paper's recovery story:
while :class:`~repro.pipeline.engine.RebuildPipeline` repairs the failed
physical disk in a background thread, reader threads keep issuing element
reads against the array and every one of them is answered byte-exactly:

* reads to surviving disks are served directly from the disk image;
* reads to already-rebuilt stripes are served from the patched image kept
  current by the pipeline's ``on_chunk`` hook (the rebuild *frontier*);
* reads to not-yet-rebuilt stripes are reconstructed on the fly from a
  cached, search-free degraded plan
  (:class:`~repro.serving.plans.DegradedPlanCache`), with **single-flight
  coalescing**: concurrent reads touching the same stripe share one
  reconstruction — the first arrival becomes the leader, later arrivals
  register their rows and wait, and the leader answers everybody from one
  sliced multi-row plan execution.

Rebuild/read contention is mediated by two cooperating pieces: an
:class:`~repro.serving.iomodel.SimulatedDisksIoModel` charges both sides
wall-clock disk time (deterministic queueing), and an optional
:class:`~repro.serving.qos.QosController` paces rebuild chunk admission
through the pipeline's ``throttle`` hook while reads get preempting
priority on the disks.

With a :class:`~repro.faults.plan.FaultPlan` attached, degraded
reconstructions run through the
:class:`~repro.recovery.resilient.ResilientExecutor` ladder (retry →
substitute), so latent sector errors and silent corruption on surviving
disks do not break byte-exactness.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro import obs
from repro.codec.image import ArrayImageCodec
from repro.faults.plan import FaultPlan
from repro.faults.store import FaultyStripeStore
from repro.pipeline.engine import RebuildPipeline, RebuildResult
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.resilient import ResilientExecutor
from repro.recovery.scheme import RecoveryScheme
from repro.serving.iomodel import NullIoModel
from repro.serving.plans import CompiledPlanCache, DegradedPlanCache
from repro.serving.qos import QosController


class _Flight:
    """One in-progress stripe reconstruction shared by coalesced readers."""

    __slots__ = ("rows", "results", "error", "done")

    def __init__(self, row: int) -> None:
        self.rows: Set[int] = {row}
        self.results: Dict[int, np.ndarray] = {}
        self.error: Optional[BaseException] = None
        self.done = threading.Event()


class _StripeView:
    """Single-stripe adapter presenting one parent-store stripe as a
    one-stripe :class:`FaultyStripeStore` to the resilient executor."""

    def __init__(self, parent: FaultyStripeStore, stripe: int) -> None:
        self._parent = parent
        self._stripe = stripe
        self.layout = parent.layout
        self.stripes = [parent.stripes[stripe]]

    @property
    def n_stripes(self) -> int:
        return 1

    @property
    def total_read_attempts(self) -> int:
        return self._parent.total_read_attempts

    def read(self, stripe: int, eid: int) -> np.ndarray:
        return self._parent.read(self._stripe, eid)

    def checksum(self, stripe: int, eid: int) -> int:
        return self._parent.checksum(self._stripe, eid)


class ServingEngine:
    """Serve element reads against an array whose disk is being rebuilt.

    Parameters
    ----------
    codec:
        Array geometry (rotation, stripe count, element size).
    disks:
        The encoded per-disk images, shape
        ``(n_disks, n_stripes * k_rows, element_size)``.  The failed
        disk's stored rows are never read.
    failed_disk:
        The failed *physical* disk.
    planner / plan_cache / algorithm / depth:
        Whole-disk scheme search configuration; ``plan_cache`` makes both
        disk schemes and sliced row plans persistent.
    plans:
        Optional shared :class:`DegradedPlanCache` (overrides the one
        built from ``planner``).
    qos:
        Optional :class:`QosController`.  When present, rebuild chunks
        pass its token bucket and user reads get preempting I/O priority.
    io_model:
        Disk-time accounting; defaults to :class:`NullIoModel` (free).
    fault_plan:
        Optional fault injection on the degraded-read path; served
        through the resilient executor.
    max_retries:
        Resilient-executor read retries (fault path only).
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        disks: np.ndarray,
        failed_disk: int,
        *,
        planner: Optional[RecoveryPlanner] = None,
        plans: Optional[DegradedPlanCache] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        qos: Optional[QosController] = None,
        io_model: Optional[NullIoModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_retries: int = 1,
    ) -> None:
        lay = codec.code.layout
        if not 0 <= failed_disk < lay.n_disks:
            raise IndexError(f"physical disk {failed_disk} out of range")
        expect = (lay.n_disks, codec.n_stripes * lay.k_rows, codec.element_size)
        if disks.shape != expect:
            raise ValueError(f"disks shape {disks.shape} != {expect}")
        self.codec = codec
        self.disks = disks
        self.failed_disk = failed_disk
        self.qos = qos
        self.io = io_model if io_model is not None else NullIoModel()
        self._priority = qos is not None
        self.planner = planner or RecoveryPlanner(
            codec.code, algorithm=algorithm, depth=depth, plan_cache=plan_cache
        )
        self.plans = plans or DegradedPlanCache(
            codec.code, planner=self.planner, store=plan_cache
        )
        #: plan -> BatchReconstructor memo feeding the batched-XOR kernel
        self.compiled = CompiledPlanCache()
        self.max_retries = max_retries
        self.fault_store: Optional[FaultyStripeStore] = None
        if fault_plan is not None and bool(fault_plan):
            stripes = [
                codec._logical_stripe(disks, s) for s in range(codec.n_stripes)
            ]
            self.fault_store = FaultyStripeStore(lay, stripes, fault_plan)

        k = lay.k_rows
        self._k = k
        self._rebuilt = np.zeros(codec.n_stripes, dtype=bool)
        self._patched = np.zeros(
            (codec.n_stripes * k, codec.element_size), dtype=np.uint8
        )
        self._flights: Dict[int, _Flight] = {}
        self._flight_lock = threading.Lock()
        self._count_lock = threading.Lock()

        self.rebuild_done = threading.Event()
        self.rebuild_result: Optional[RebuildResult] = None
        self.rebuild_error: Optional[BaseException] = None
        self.rebuild_wall_s: Optional[float] = None
        self._rebuild_thread: Optional[threading.Thread] = None

        self.n_reads = 0
        self.n_direct = 0
        self.n_patched = 0
        self.n_degraded = 0
        self.n_coalesced = 0
        self.n_flights = 0
        self.n_resilient = 0

    # ------------------------------------------------------------------
    # plan warm-up
    # ------------------------------------------------------------------
    def roles_of_failed_disk(self) -> List[int]:
        """Logical roles the failed physical disk plays across stripes."""
        n = self.codec.code.layout.n_disks
        return sorted(
            {
                self.codec.logical_role(self.failed_disk, s)
                for s in range(self.codec.n_stripes)
            }
        )

    def warm_plans(self) -> int:
        """Precompute every degraded plan the read path can need.

        After this returns, steady-state serving performs zero scheme
        searches — provable via the ``search.expanded`` /
        ``planner.schemes_generated`` obs counters staying flat.
        """
        return self.plans.warm(self.roles_of_failed_disk())

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read(self, disk: int, row: int) -> np.ndarray:
        """Serve one element read; ``row`` is the disk-global row index."""
        lay = self.codec.code.layout
        if not 0 <= disk < lay.n_disks:
            raise IndexError(f"disk {disk} out of range")
        if not 0 <= row < self.codec.n_stripes * self._k:
            raise IndexError(f"row {row} out of range")
        if self.qos is not None:
            self.qos.read_started()
        t0 = time.perf_counter()
        try:
            data = self._read_inner(disk, row)
        finally:
            if self.qos is not None:
                self.qos.read_finished(time.perf_counter() - t0)
        with self._count_lock:
            self.n_reads += 1
        obs.count("serving.reads")
        return data

    def _read_inner(self, disk: int, row: int) -> np.ndarray:
        if disk != self.failed_disk:
            self.io.read_elements({disk: 1}, priority=self._priority)
            with self._count_lock:
                self.n_direct += 1
            obs.count("serving.direct")
            return self.disks[disk, row].copy()
        s, r = divmod(row, self._k)
        if self._rebuilt[s]:
            # the rebuilt element lives on the replacement spindle
            self.io.read_elements({disk: 1}, priority=self._priority)
            with self._count_lock:
                self.n_patched += 1
            obs.count("serving.patched")
            return self._patched[row].copy()
        return self._degraded_read(s, r)

    def _degraded_read(self, s: int, r: int) -> np.ndarray:
        with self._flight_lock:
            flight = self._flights.get(s)
            if flight is None:
                flight = self._flights[s] = _Flight(r)
                leader = True
            else:
                flight.rows.add(r)
                leader = False
                with self._count_lock:
                    self.n_coalesced += 1
                obs.count("serving.coalesced")
        if leader:
            self._lead_flight(s, flight)
        else:
            flight.done.wait()
        if flight.error is not None:
            raise flight.error
        with self._count_lock:
            self.n_degraded += 1
        obs.count("serving.degraded")
        return flight.results[r].copy()

    def _lead_flight(self, s: int, flight: _Flight) -> None:
        """Reconstruct every row registered on the flight, looping until
        no reader joined since the last pass, then publish atomically."""
        results: Dict[int, np.ndarray] = {}
        try:
            while True:
                with self._flight_lock:
                    todo = sorted(flight.rows - set(results))
                    if not todo:
                        flight.results = results
                        del self._flights[s]
                        flight.done.set()
                        return
                results.update(self._reconstruct_rows(s, todo))
        except BaseException as exc:
            with self._flight_lock:
                flight.error = exc
                self._flights.pop(s, None)
                flight.done.set()
            raise

    def _reconstruct_rows(
        self, s: int, rows: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """One reconstruction answering several rows of stripe ``s``."""
        lay = self.codec.code.layout
        logical = self.codec.logical_role(self.failed_disk, s)
        plan = self.plans.plan_for_rows(logical, rows)
        per_disk: Dict[int, int] = {}
        for ldisk, load in enumerate(plan.loads):
            if load:
                per_disk[self.codec.physical_disk(ldisk, s)] = load
        self.io.read_elements(per_disk, priority=self._priority)
        if self.fault_store is not None:
            recovered = self._execute_resilient(s, plan)
        else:
            stripe = np.zeros(
                (lay.n_elements, self.codec.element_size), dtype=np.uint8
            )
            base = s * self._k
            for ldisk, lrow in lay.iter_elements(plan.read_mask):
                phys = self.codec.physical_disk(ldisk, s)
                stripe[lay.eid(ldisk, lrow)] = self.disks[phys, base + lrow]
            # one-stripe batch through the compiled plan: the batched-XOR
            # kernel (or its byte-identical numpy fallback) does the fold
            recon = self.compiled.reconstructor(plan)
            out = np.empty(
                (1, len(plan.failed_eids), self.codec.element_size),
                dtype=np.uint8,
            )
            recon.recover_batch_into(stripe[None], out)
            recovered = {
                eid: out[0, i] for i, eid in enumerate(plan.failed_eids)
            }
        with self._count_lock:
            self.n_flights += 1
        obs.count("serving.flights")
        return {
            row: recovered[lay.eid(logical, row)]
            for row in rows
        }

    def _execute_resilient(
        self, s: int, plan: RecoveryScheme
    ) -> Dict[int, np.ndarray]:
        executor = ResilientExecutor(
            self.codec.code,
            plan,
            _StripeView(self.fault_store, s),
            max_retries=self.max_retries,
            algorithm=(
                self.planner.algorithm
                if self.planner.algorithm in ("khan", "u")
                else "u"
            ),
            depth=max(self.planner.depth, 2),
        )
        result = executor.run()
        with self._count_lock:
            self.n_resilient += 1
        obs.count("serving.resilient")
        return result.recovered[0]

    # ------------------------------------------------------------------
    # rebuild side
    # ------------------------------------------------------------------
    def start_rebuild(
        self,
        workers: int = 0,
        chunk_stripes: int = 64,
    ) -> threading.Thread:
        """Kick off the background rebuild of the failed disk.

        Returns the rebuild thread; :attr:`rebuild_done` is set when it
        finishes (successfully or not — check :attr:`rebuild_error`).
        """
        if self._rebuild_thread is not None:
            raise RuntimeError("rebuild already started")
        pipe = RebuildPipeline(
            self.codec,
            workers=workers,
            chunk_stripes=chunk_stripes,
            planner=self.planner,
            throttle=self._throttle_hook,
            on_chunk=self._chunk_done_hook,
        )

        def _run() -> None:
            t0 = time.perf_counter()
            try:
                self.rebuild_result = pipe.rebuild(self.disks, self.failed_disk)
            except BaseException as exc:
                self.rebuild_error = exc
            finally:
                self.rebuild_wall_s = time.perf_counter() - t0
                self.rebuild_done.set()

        thread = threading.Thread(target=_run, name="serving-rebuild")
        self._rebuild_thread = thread
        thread.start()
        return thread

    def wait_rebuild(self, timeout: Optional[float] = None) -> bool:
        """Block until the rebuild finishes; re-raises a rebuild error."""
        finished = self.rebuild_done.wait(timeout)
        if finished and self.rebuild_error is not None:
            raise self.rebuild_error
        return finished

    def _throttle_hook(self, chunk) -> None:
        if self.qos is not None:
            self.qos.before_chunk(chunk)
        scheme = self.planner.scheme_for_disk(chunk.logical_disk)
        per_disk: Dict[int, int] = {}
        n = self.codec.code.layout.n_disks
        for ldisk, load in enumerate(scheme.loads):
            if load:
                phys = (ldisk + chunk.rotation) % n
                per_disk[phys] = load * chunk.n_stripes
        self.io.rebuild_chunk(per_disk)

    def _chunk_done_hook(self, chunk, rows: np.ndarray) -> None:
        k = self._k
        row_idx = (
            chunk.stripe_ids[:, None] * k + np.arange(k, dtype=np.int64)
        ).reshape(-1)
        self._patched[row_idx] = rows.reshape(-1, self.codec.element_size)
        # mark rebuilt only after the bytes are in place: readers observing
        # True are guaranteed to find the patched rows
        self._rebuilt[chunk.stripe_ids] = True
        if self.qos is not None:
            self.qos.after_chunk(chunk)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Serving + rebuild counters snapshot."""
        out: Dict[str, object] = {
            "reads": self.n_reads,
            "direct": self.n_direct,
            "patched": self.n_patched,
            "degraded": self.n_degraded,
            "coalesced": self.n_coalesced,
            "flights": self.n_flights,
            "resilient": self.n_resilient,
            "plans_resident": len(self.plans),
            "rebuild_done": self.rebuild_done.is_set(),
            "rebuild_wall_s": self.rebuild_wall_s,
            "stripes_rebuilt": int(self._rebuilt.sum()),
        }
        if self.qos is not None:
            out["qos"] = self.qos.stats()
        return out
