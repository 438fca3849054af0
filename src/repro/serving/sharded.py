"""The serving engine: stripe-range shard processes over shared memory.

While the failed disk rebuilds in the background, user element reads
keep being answered byte-exactly.  The serving plane is sharded by
**stripe range**: shard *i* owns stripes ``[bounds[i], bounds[i+1])`` of
the array (its own declustered spindle group under the simulated I/O
model) and serves its slice of the global open-loop trace in a dedicated
worker process; ``n_shards=1`` is the single-shard engine, and
:class:`ShardServer` is the in-process core a shard runs.  Shared state
is:

* the pristine disk images and the rebuilt-row *patch map* in named
  shared memory (:class:`~repro.serving.shm.SharedServingState`);
* the rebuild **frontier** as messages on a per-shard one-way control
  pipe: the parent's rebuild loop writes a chunk's recovered rows into
  the patch map *first*, then sends each owning shard the stripes that
  advanced (write -> send -> recv is the cross-process happens-before,
  so a shard never serves a torn row).  The same pipe is what an idle
  shard waits on: one ``select`` until the next scheduled arrival,
  which a frontier message cuts short;
* the degraded **plan map**: the parent warms every per-row plan any
  shard can need before forking, so workers start search-free; under a
  ``spawn`` start method they slice their plans from whole-disk schemes
  read out of the persistent
  :class:`~repro.recovery.plancache.SchemePlanCache` store instead.

A shard drains every overdue request in one scoop and groups degraded
reads by ``(logical role, row)``.  All stripes where the failed physical
disk plays the same logical role share one rotation, hence one physical
mapping — so the whole group is one entry of the shard's dense plan
table (a :class:`~repro.codec.batch.CompiledPlan`, checked like a
rebuild's plan by :func:`~repro.codec.batch.check_plan`) and one
batched-XOR kernel call
(:meth:`~repro.codec.batch.BatchReconstructor.recover_batch_into`) that
reads its stripes in place from the disk image.  With a
:class:`~repro.faults.plan.FaultPlan`, a group runs through the
:class:`~repro.recovery.resilient.ResilientExecutor` ladder instead,
and the shard sums each group's fault report (:data:`FAULT_COUNTERS`).

The parent steers rebuild admission with :class:`BoardThrottle` on the
shared latency *board* each shard publishes its p99 to.

Every degraded and patched answer is verified against the pristine bytes
in shared memory (the failed disk's true rows, never used as a recovery
source), so a correctness bug surfaces as a nonzero mismatch count in
the report rather than silently wrong bytes.  Failure anywhere is loud:
a dead or erroring worker raises ``RuntimeError`` in
:meth:`ShardedServingEngine.serve_trace`; there is no silent fallback to
fewer shards.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import queue as queue_mod
import select
import sys
import time
import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.codec.batch import ColumnSet, CompiledPlan, PlanMemo
from repro.codec.image import ArrayImageCodec
from repro.disksim.workload import Request
from repro.faults.plan import FaultPlan
from repro.faults.store import FaultyStripeStore
from repro.pipeline.engine import RebuildPipeline
from repro.pipeline.pool import RebuildResult
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.resilient import ResilientExecutor
from repro.serving.frontend import partition_trace, shard_bounds, trace_arrays
from repro.serving.iomodel import NullIoModel, SimulatedDisksIoModel
from repro.serving.plans import DegradedPlanCache
from repro.serving.qos import TokenBucket, percentile
from repro.serving.shm import (
    BOARD_BACKLOG,
    BOARD_DEGRADED,
    BOARD_DIRECT,
    BOARD_MISMATCHES,
    BOARD_P50_MS,
    BOARD_P99_MS,
    BOARD_PATCHED,
    BOARD_SERVED,
    SharedServingState,
    ServingStateSpec,
)

#: :class:`~repro.faults.report.FaultReport` counts each shard sums over
#: its resilient groups.  ``elements_read`` is not one of them: it counts
#: every read of the shard's store, not one group's.
FAULT_COUNTERS = (
    "retries",
    "latent_errors",
    "corruptions",
    "substitutions",
    "escalations",
)


class BoardThrottle:
    """Rebuild admission: a token bucket steered by AIMD on the latency board.

    The parent cannot see individual read latencies (they happen in the
    shard processes), so it steers on what the shards publish: the worst
    per-shard p99 on the board.  Over ``target_p99_ms`` the chunk rate is
    multiplied by ``decrease``; at or under 0.8x the target it is
    multiplied by ``increase``, and uncapped again once it clears 20
    times the floor.

    The floor comes from the chunks themselves: :meth:`after_chunk` folds
    each chunk's duration into an EMA, and the rate never drops below
    ``1 / (ema_chunk_s * (1 + max_inflation))``.  A paced chunk then waits
    at most ``max_inflation`` times a chunk's own duration, which bounds
    rebuild inflation by construction; while steering, every wait is also
    capped at that bound (a backstop against a stale rate).  With no
    target nothing steers: a fixed ``rate`` is honoured exactly, however
    slow.
    """

    def __init__(
        self,
        board: np.ndarray,
        target_p99_ms: Optional[float] = None,
        rate: Optional[float] = None,
        max_inflation: float = 0.35,
        decrease: float = 0.5,
        increase: float = 1.2,
        adjust_interval_s: float = 0.05,
        min_served: int = 32,
    ) -> None:
        if target_p99_ms is not None and target_p99_ms <= 0:
            raise ValueError(f"target_p99_ms must be positive, got {target_p99_ms}")
        if max_inflation <= 0:
            raise ValueError(f"max_inflation must be positive, got {max_inflation}")
        if not 0 < decrease < 1:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        if increase <= 1:
            raise ValueError(f"increase must be > 1, got {increase}")
        self.board = board
        self.target_p99_ms = target_p99_ms
        self.max_inflation = max_inflation
        self.decrease = decrease
        self.increase = increase
        self.adjust_interval_s = adjust_interval_s
        self.min_served = min_served
        self.bucket = TokenBucket(rate=rate)
        self._last_adjust = time.monotonic()
        self._ema_chunk_s: Optional[float] = None
        self._chunk_t0: Optional[float] = None
        self.rate_decreases = 0
        self.rate_increases = 0
        self.throttle_wait_s = 0.0
        self.chunks_admitted = 0

    def board_p99_ms(self) -> float:
        """Worst published p99 across shards with enough samples."""
        served = self.board[:, BOARD_SERVED]
        p99 = self.board[:, BOARD_P99_MS]
        mask = served >= self.min_served
        return float(p99[mask].max()) if mask.any() else 0.0

    def floor_rate(self) -> Optional[float]:
        """The chunk-rate floor, or ``None`` before the first chunk ends."""
        if not self._ema_chunk_s:
            return None
        return 1.0 / (self._ema_chunk_s * (1.0 + self.max_inflation))

    def _set_rate(self, rate: Optional[float]) -> None:
        self.bucket.set_rate(rate)
        if rate is not None:
            obs.gauge("serving.rebuild_rate", rate)

    def _maybe_adjust(self) -> None:
        if self.target_p99_ms is None:
            return
        now = time.monotonic()
        if now - self._last_adjust < self.adjust_interval_s:
            return
        self._last_adjust = now
        floor = self.floor_rate()
        p99 = self.board_p99_ms()
        if floor is None or p99 <= 0.0:
            return
        rate = self.bucket.rate
        if p99 > self.target_p99_ms:
            new_rate = floor if rate is None else max(floor, rate * self.decrease)
            if rate is None or new_rate < rate:
                self._set_rate(new_rate)
                self.rate_decreases += 1
                obs.count("serving.rate_decreases")
        elif rate is not None and p99 <= 0.8 * self.target_p99_ms:
            new_rate = rate * self.increase
            self._set_rate(None if new_rate >= 20.0 * floor else new_rate)
            self.rate_increases += 1
            obs.count("serving.rate_increases")

    def before_chunk(self, chunk=None) -> float:
        """Admission control for one rebuild chunk; returns seconds waited."""
        self._maybe_adjust()
        max_wait = None
        if self.target_p99_ms is not None:
            ema = self._ema_chunk_s
            max_wait = 0.05 if ema is None else ema * self.max_inflation
        waited = self.bucket.acquire(1.0, max_wait=max_wait)
        if waited:
            self.throttle_wait_s += waited
            obs.count("serving.throttle_wait_ms", int(waited * 1e3))
        self.chunks_admitted += 1
        self._chunk_t0 = time.monotonic()
        return waited

    def after_chunk(self, chunk=None, rows=None) -> None:
        """Fold the admitted chunk's duration into the EMA; re-floor."""
        if self._chunk_t0 is None:
            return
        dur = time.monotonic() - self._chunk_t0
        ema = self._ema_chunk_s
        self._ema_chunk_s = dur if ema is None else 0.7 * ema + 0.3 * dur
        floor, rate = self.floor_rate(), self.bucket.rate
        if self.target_p99_ms is not None and floor and rate and rate < floor:
            self._set_rate(floor)

    def stats(self) -> Dict[str, float]:
        rate = self.bucket.rate
        floor = self.floor_rate()
        return {
            "target_p99_ms": self.target_p99_ms,
            "rebuild_rate": rate if rate is not None else float("inf"),
            "floor_rate": floor if floor is not None else 0.0,
            "ema_chunk_ms": (self._ema_chunk_s or 0.0) * 1e3,
            "rate_decreases": self.rate_decreases,
            "rate_increases": self.rate_increases,
            "throttle_wait_s": self.throttle_wait_s,
            "chunks_admitted": self.chunks_admitted,
            "board_p99_ms": self.board_p99_ms(),
        }


#: ``prctl`` option that sets the calling thread's timer slack (Linux)
_PR_SET_TIMERSLACK = 29


class _TableEntry(NamedTuple):
    """A degraded ``(role, row)`` group's compiled plan, placed once."""

    plan: CompiledPlan
    slot: int                   #: output slot of the requested element
    n_slots: int                #: elements the plan recovers
    columns: ColumnSet          #: the rotation class's logical columns
    billing: Tuple[Tuple[int, int], ...]  #: (physical disk, reads per stripe)


class ShardServer:
    """The in-process serving core of one shard (testable without mp).

    Owns stripes ``[stripe_lo, stripe_hi)``; serves direct, patched and
    batched degraded reads against numpy views (shared-memory or plain
    arrays — the code cannot tell), verifying every reconstructed or
    patched answer against the pristine image.

    Construction prepares the degraded path once: a dense ``(role, row)``
    table of compiled plans for every role the failed disk plays in the
    range (each entry: compiled plan, output slot, the rotation class's
    :class:`~repro.codec.batch.ColumnSet` over the disk image from
    :meth:`~repro.codec.image.ArrayImageCodec.rotation_columns`, and the
    per-disk billing through the codec's placement), so a degraded group
    is one table lookup and one in-place ``recover_batch_into`` call.
    Every plan is compiled through a :class:`~repro.codec.batch.PlanMemo`, so
    :func:`~repro.codec.batch.check_plan` refuses (``ValueError``, at
    construction) one that reads the dead role or misstates its loads.

    A non-empty ``fault_plan`` builds a
    :class:`~repro.faults.store.FaultyStripeStore` over the array's
    logical stripes, and every degraded group is then recovered through
    the resilient executor on it (billed like the kernel path).
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        disks: np.ndarray,
        patched: np.ndarray,
        failed_disk: int,
        stripe_lo: int,
        stripe_hi: int,
        plans: Optional[DegradedPlanCache] = None,
        io: Optional[NullIoModel] = None,
        priority: bool = True,
        max_batch: int = 512,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        lay = codec.code.layout
        if not 0 <= failed_disk < lay.n_disks:
            raise IndexError(f"physical disk {failed_disk} out of range")
        # an empty range (lo == hi) is a legal idle shard: over-provisioned
        # shard counts must degrade to idle workers, not crashes
        if not 0 <= stripe_lo <= stripe_hi <= codec.n_stripes:
            raise ValueError(
                f"bad stripe range [{stripe_lo}, {stripe_hi}) for "
                f"{codec.n_stripes} stripes"
            )
        self.codec = codec
        self.disks = disks
        self.patched = patched
        self.failed_disk = failed_disk
        self.stripe_lo = stripe_lo
        self.stripe_hi = stripe_hi
        self.plans = plans or DegradedPlanCache(codec.code)
        #: the table's compiled, checked plans, one per distinct plan
        self.compiled = PlanMemo()
        self.io = io if io is not None else NullIoModel()
        self.priority = priority
        self.max_batch = max_batch
        self._k = k = lay.k_rows
        n = lay.n_disks
        self._rebuilt = np.zeros(codec.n_stripes, dtype=bool)
        # the failed disk's true rows: the oracle every answer is checked
        # against
        self._truth = codec.view_image(disks)[failed_disk]
        _, roles = codec.placement.roles_of_disk(failed_disk)
        #: the failed disk's role in each stripe (an array disk is in
        #: every stripe, and the inverse map lists them in stripe order)
        self._role_of: List[int] = roles.tolist()
        #: logical stripes behind the fault plan; ``None`` keeps every
        #: degraded group on the kernel
        self.fault_store: Optional[FaultyStripeStore] = None
        if fault_plan:
            self.fault_store = FaultyStripeStore(
                lay, codec.logical_stripes(disks, range(codec.n_stripes)),
                fault_plan,
            )
        #: one column set per role the failed disk plays, read in place
        self._columns: Dict[int, ColumnSet] = {}
        #: dense (role, row) plan table, indexed by role * k_rows + row
        self._table: List[Optional[_TableEntry]] = [None] * (n * k)
        for s, role in enumerate(self._role_of[stripe_lo:stripe_hi], stripe_lo):
            if self._table[role * k] is None:
                for r in range(k):
                    self._group_plan(role * k + r, s)
        self.n_direct = 0
        self.n_patched = 0
        self.n_degraded = 0
        self.n_batches = 0
        self.n_resilient = 0
        self.fault_counts = dict.fromkeys(FAULT_COUNTERS, 0)
        self.mismatches = 0

    def _group_plan(self, key: int, stripe: int) -> _TableEntry:
        """Build and table the degraded plan of ``(role, row) = divmod(key, k)``,
        placed as in ``stripe`` (one where the failed disk plays ``role``)."""
        role, r = divmod(key, self._k)
        codec = self.codec
        plan = self.plans.plan_for_element(role, r)
        compiled = self.compiled(role, plan)
        columns = self._columns.get(role)
        if columns is None:
            columns = self._columns[role] = codec.rotation_columns(
                self.disks, stripe
            )
        hosts = codec.placement.disk_of_role(stripe, compiled.logicals)
        billing = tuple(
            (disk, int(load)) for disk, load in zip(hosts.tolist(), compiled.loads)
        )
        entry = _TableEntry(
            compiled,
            plan.failed_eids.index(codec.code.layout.eid(role, r)),
            len(plan.failed_eids),
            columns,
            billing,
        )
        self._table[key] = entry
        return entry

    # ------------------------------------------------------------------
    # frontier
    # ------------------------------------------------------------------
    def note_rebuilt(
        self, stripe_ids: np.ndarray, rebuild_per_disk: Optional[Dict[int, int]] = None
    ) -> None:
        """Advance the local frontier; charge the chunk's I/O to our spindles.

        Called when a frontier notification arrives: the patch-map rows
        for these stripes are already in shared memory (the sender wrote
        them before notifying).
        """
        self._rebuilt[stripe_ids] = True
        if rebuild_per_disk:
            self.io.reserve_background(rebuild_per_disk)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _serve_batch(
        self, disks: np.ndarray, rows: np.ndarray, want_data: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Serve one drained batch; returns per-request completion times.

        Groups: direct reads charge their disks in one parallel fan-out;
        patched reads hit the replacement spindle; degraded reads group
        by (logical role, row) — one rotation, one table entry, one
        batched-XOR kernel call per group, reading its stripes in place.
        """
        m = len(rows)
        completions = np.empty(m, dtype=np.float64)
        data = (
            np.empty((m, self.codec.element_size), dtype=np.uint8)
            if want_data
            else None
        )
        k = self._k
        failed = self.failed_disk
        role_of = self._role_of
        direct_idx: List[int] = []
        patched_idx: List[int] = []
        #: role * k + row -> (request indices, stripe ids)
        degraded: Dict[int, Tuple[List[int], List[int]]] = {}
        for t, (disk, row) in enumerate(zip(disks.tolist(), rows.tolist())):
            if disk != failed:
                direct_idx.append(t)
                continue
            s, r = divmod(row, k)
            if self._rebuilt[s]:
                patched_idx.append(t)
                continue
            key = role_of[s] * k + r
            group = degraded.get(key)
            if group is None:
                group = degraded[key] = ([], [])
            group[0].append(t)
            group[1].append(s)

        if direct_idx:
            per_disk: Dict[int, int] = {}
            for t in direct_idx:
                per_disk[int(disks[t])] = per_disk.get(int(disks[t]), 0) + 1
            self.io.read_elements(per_disk, priority=self.priority)
            done = time.monotonic()
            for t in direct_idx:
                completions[t] = done
                if want_data:
                    data[t] = self.disks[disks[t], rows[t]]
            self.n_direct += len(direct_idx)

        if patched_idx:
            self.io.read_elements(
                {failed: len(patched_idx)}, priority=self.priority
            )
            done = time.monotonic()
            p_rows = rows[patched_idx]
            served_rows = self.patched[p_rows]
            self.mismatches += int(
                np.any(served_rows != self.disks[failed, p_rows], axis=1).sum()
            )
            for t in patched_idx:
                completions[t] = done
                if want_data:
                    data[t] = self.patched[rows[t]]
            self.n_patched += len(patched_idx)

        esz = self.codec.element_size
        for key, (idxs, stripes) in degraded.items():
            entry = self._table[key] or self._group_plan(key, stripes[0])
            plan, slot, n_slots, columns, billing = entry
            count = len(idxs)
            self.io.read_elements(
                {disk: load * count for disk, load in billing},
                priority=self.priority,
            )
            ids = np.array(stripes, dtype=np.int64)
            if self.fault_store is None:
                out = np.empty((count, n_slots, esz), dtype=np.uint8)
                plan.recon.recover_batch_into(columns, out, ids)
                answer = out[:, slot]
            else:
                answer = self._recover_resilient(key, stripes)
            done = time.monotonic()
            self.mismatches += int(
                np.any(answer != self._truth[ids, key % k], axis=1).sum()
            )
            for pos, t in enumerate(idxs):
                completions[t] = done
                if want_data:
                    data[t] = answer[pos]
            self.n_degraded += count
        self.n_batches += 1
        return completions, data

    def _recover_resilient(self, key: int, stripes: List[int]) -> np.ndarray:
        """One degraded group through the fault ladder, stripe by stripe.

        The :class:`~repro.recovery.resilient.ResilientExecutor` reads the
        fault store (retry, substitute, escalate), so latent sector errors
        and silent corruption on surviving disks still answer exactly.
        The group's fault report is added to :attr:`fault_counts`.
        """
        role, r = divmod(key, self._k)
        planner = self.plans.planner
        executor = ResilientExecutor(
            self.codec.code,
            self.plans.plan_for_element(role, r),
            self.fault_store,
            algorithm=planner.algorithm,
            depth=max(planner.depth, 2),
        )
        eid = self.codec.code.layout.eid(role, r)
        result = executor.run(stripes)
        report, counts = result.report, self.fault_counts
        counts["retries"] += report.total_retries
        counts["latent_errors"] += report.latent_errors
        counts["corruptions"] += report.corruptions_detected
        counts["substitutions"] += len(report.substitutions)
        counts["escalations"] += len(report.escalations)
        self.n_resilient += len(stripes)
        return np.stack([out[eid] for out in result.recovered])

    def read(self, disk: int, row: int) -> np.ndarray:
        """Serve one request (test/CLI convenience; the trace loop batches)."""
        _, data = self._serve_batch(
            np.asarray([disk]), np.asarray([row]), want_data=True
        )
        return data[0].copy()

    # ------------------------------------------------------------------
    def _drain_ctrl(self, ctrl) -> None:
        """Apply every frontier message already in the pipe; never blocks."""
        if ctrl is None:
            return
        fd = ctrl.fileno()
        while select.select([fd], [], [], 0)[0]:
            msg = ctrl.recv()
            if msg[0] == "frontier":
                self.note_rebuilt(msg[1], msg[2])

    def _idle(self, ctrl, timeout_s: float) -> None:
        """Wait up to ``timeout_s``; a frontier message ends the wait early.

        One ``select`` on the control pipe is the whole wait: it returns
        at the deadline (to the microsecond, unlike a millisecond-rounded
        poll) or as soon as a message arrives, which is applied at once.
        Without a pipe the wait is a plain sleep.
        """
        if ctrl is None:
            time.sleep(timeout_s)
        elif select.select([ctrl.fileno()], [], [], timeout_s)[0]:
            self._drain_ctrl(ctrl)

    def _publish(self, board: Optional[np.ndarray], lat: np.ndarray,
                 served: int, backlog: int) -> None:
        if board is None:
            return
        recent = lat[max(0, served - 512):served].tolist()
        board[BOARD_SERVED] = served
        board[BOARD_P50_MS] = percentile(recent, 0.5) * 1e3
        board[BOARD_P99_MS] = percentile(recent, 0.99) * 1e3
        board[BOARD_BACKLOG] = backlog
        board[BOARD_DEGRADED] = self.n_degraded
        board[BOARD_DIRECT] = self.n_direct
        board[BOARD_PATCHED] = self.n_patched
        board[BOARD_MISMATCHES] = self.mismatches

    def serve_trace(
        self,
        arrival_s: np.ndarray,
        disks: np.ndarray,
        rows: np.ndarray,
        t_start: float,
        ctrl=None,
        board: Optional[np.ndarray] = None,
        publish_interval_s: float = 0.2,
    ) -> Dict[str, object]:
        """Replay this shard's sub-trace open-loop; returns the result dict.

        The loop applies pending frontier messages from ``ctrl`` (the
        read end of the shard's control pipe, or ``None``), waits for the
        next scheduled arrival (:meth:`_idle`), then scoops *every*
        overdue request into one batch — under backlog the batch grows,
        the grouped reconstruction amortizes, and the shard catches up.

        Each read's latency (scheduled arrival to completion) splits into
        its wake-up lag (arrival to the start of its batch) and its
        service time (batch start to completion); the result carries
        p50/p99 of all three and publishes the split as obs gauges.
        """
        n = len(arrival_s)
        sched = t_start + np.asarray(arrival_s, dtype=np.float64)
        due = sched.tolist()
        lat = np.empty(n, dtype=np.float64)
        wake = np.empty(n, dtype=np.float64)
        i = 0
        last_pub = 0.0
        while i < n:
            self._drain_ctrl(ctrl)
            now = time.monotonic()
            while now < due[i]:
                self._idle(ctrl, due[i] - now)
                now = time.monotonic()
            j = i + 1
            while j < n and due[j] <= now and j - i < self.max_batch:
                j += 1
            completions, _ = self._serve_batch(disks[i:j], rows[i:j])
            wake[i:j] = now - sched[i:j]
            lat[i:j] = completions - sched[i:j]
            i = j
            now = time.monotonic()
            if now - last_pub >= publish_interval_s:
                self._publish(board, lat, i, n - i)
                last_pub = now
        t_end = time.monotonic()
        self._publish(board, lat, n, 0)
        obs.count("serving.reads", n)
        obs.count("serving.degraded", self.n_degraded)
        obs.count("serving.direct", self.n_direct)
        obs.count("serving.patched", self.n_patched)
        obs.count("serving.batches", self.n_batches)
        obs.count("serving.resilient", self.n_resilient)
        res: Dict[str, object] = {
            "served": n,
            "mismatches": self.mismatches,
            "direct": self.n_direct,
            "patched": self.n_patched,
            "degraded": self.n_degraded,
            "batches": self.n_batches,
            "resilient": self.n_resilient,
            "faults": dict(self.fault_counts),
            "duration_s": max(t_end - t_start, 1e-9),
            "latencies": lat,
            "wake_lags": wake,
            "plans_resident": len(self.plans),
        }
        res.update(latency_ledger(lat, wake))
        return res


def latency_ledger(lat: np.ndarray, wake: np.ndarray) -> Dict[str, float]:
    """p50/p99 (ms) of latency, wake-up lag and service time; as gauges too.

    ``lat`` and ``wake`` are per-read seconds from the scheduled arrival
    to completion and to the start of the read's batch; service time is
    their difference.
    """
    ledger: Dict[str, float] = {}
    for name, samples in (
        ("", lat), ("wake_", wake), ("service_", lat - wake)
    ):
        values = samples.tolist()
        for q in (50, 99):
            ledger[f"{name}p{q}_ms"] = percentile(values, q / 100) * 1e3
    for key in ("wake_p50_ms", "wake_p99_ms", "service_p50_ms", "service_p99_ms"):
        obs.gauge(f"serving.{key}", ledger[key])
    return ledger


def _tighten_timer_slack() -> None:
    """Ask Linux for 1 ns timer slack on this thread (best effort).

    The default 50 us slack lets the kernel defer a timed wake-up to batch
    it with others; an open-loop replay waits for one arrival at a time,
    so every deferral lands in the latency.  Elsewhere, or if the call
    fails, nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None).prctl(_PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):  # no libc handle or no prctl
        pass


def _shard_main(
    spec: ServingStateSpec,
    shard_id: int,
    codec: ArrayImageCodec,
    failed_disk: int,
    stripe_lo: int,
    stripe_hi: int,
    trace: Tuple[np.ndarray, np.ndarray, np.ndarray],
    t_start: float,
    ctrl,
    results,
    cfg: Dict[str, object],
) -> None:
    """Worker process entry: attach shared state, serve the sub-trace."""
    state = None
    try:
        _tighten_timer_slack()
        state = SharedServingState.attach(spec)
        rec = obs.enable(f"shard{shard_id}") if cfg.get("obs") else None
        erm = cfg.get("element_read_ms")
        io: NullIoModel
        if erm is not None:
            io = SimulatedDisksIoModel(
                codec.code.layout.n_disks,
                element_read_ms=float(erm),
                priority_grace_ms=float(cfg.get("priority_grace_ms", 1.0)),
            )
        else:
            io = NullIoModel()
        plans = cfg.get("plans")
        if plans is None:
            store_path = cfg.get("store_path")
            planner = RecoveryPlanner(
                codec.code,
                algorithm=str(cfg.get("algorithm", "u")),
                depth=int(cfg.get("depth", 1)),
                plan_cache=SchemePlanCache(store_path) if store_path else None,
            )
            plans = DegradedPlanCache(codec.code, planner=planner)
        server = ShardServer(
            codec,
            state.disks,
            state.patched,
            failed_disk,
            stripe_lo,
            stripe_hi,
            plans=plans,
            io=io,
            priority=bool(cfg.get("priority", True)),
            fault_plan=cfg.get("fault_plan"),
        )
        arr, d, r = trace
        res = server.serve_trace(
            arr, d, r, t_start, ctrl=ctrl, board=state.board[shard_id]
        )
        # no more frontier reads: later sends fail fast instead of filling
        # the pipe of a shard that has stopped listening
        ctrl.close()
        res["shard"] = shard_id
        if rec is not None:
            res["obs"] = rec.snapshot()
        results.put(("ok", shard_id, res))
    except BaseException:
        results.put(("error", shard_id, traceback.format_exc()))
    finally:
        if state is not None:
            try:
                state.close()
            except Exception:
                pass


@dataclass
class ShardedReport:
    """Aggregated outcome of one sharded open-loop serving run."""

    requested_shards: int
    n_shards: int               #: workers that actually reported back
    served: int
    mismatches: int
    errors: List[str]
    p50_ms: float
    p99_ms: float
    #: latency split: scheduled arrival -> batch start (pooled percentiles)
    wake_p50_ms: float
    wake_p99_ms: float
    #: latency split: batch start -> completion (pooled percentiles)
    service_p50_ms: float
    service_p99_ms: float
    mean_ms: float
    duration_s: float           #: slowest shard's replay wall time
    offered_rate_rps: float
    throughput_rps: float
    rebuild_wall_s: Optional[float]
    per_shard: List[Dict[str, object]] = field(default_factory=list)
    throttle: Dict[str, float] = field(default_factory=dict)
    #: rebuilt stripes that differ from the failed disk's pristine bytes
    #: (the rebuild's own in-pass verification)
    rebuild_mismatches: int = 0

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Every shard's :data:`FAULT_COUNTERS`, summed."""
        return {
            key: sum(int(s["faults"][key]) for s in self.per_shard)
            for key in FAULT_COUNTERS
        }

    @property
    def ok(self) -> bool:
        return (
            self.mismatches == 0
            and self.rebuild_mismatches == 0
            and not self.errors
            and self.n_shards == self.requested_shards
        )


def _collect_results(
    results_q, procs: Sequence, timeout_s: float
) -> Tuple[Dict[int, Dict[str, object]], List[str]]:
    """Gather each shard's ``(status, shard_id, payload)`` from ``results_q``.

    Returns the ``"ok"`` payloads by shard and one error per shard that
    failed, or sent nothing before it died or ``timeout_s`` ran out.  A
    shard's liveness is read *before* each poll of the queue: a shard
    flushes its result before it exits, so one seen dead before a
    non-blocking poll finds the queue empty truly sent nothing, while a
    shard that sends and exits while the poll waits is still heard.
    """
    results: Dict[int, Dict[str, object]] = {}
    errors: List[str] = []
    deadline = time.monotonic() + timeout_s
    pending = set(range(len(procs)))
    while pending and time.monotonic() < deadline:
        dead = any(not procs[i].is_alive() for i in pending)
        try:
            status, shard_id, payload = results_q.get(block=not dead, timeout=1.0)
        except queue_mod.Empty:
            if dead:
                break
            continue
        pending.discard(shard_id)
        if status == "ok":
            results[shard_id] = payload
        else:
            errors.append(f"shard {shard_id} failed:\n{payload}")
    for shard_id in sorted(pending):
        proc = procs[shard_id]
        state_note = (
            "still running" if proc.is_alive() else f"exit code {proc.exitcode}"
        )
        errors.append(f"shard {shard_id} produced no result ({state_note})")
    return results, errors


class ShardedServingEngine:
    """Parent orchestrator: shared state + shard workers + inline rebuild.

    ``n_shards`` must be >= 1 (counts beyond ``n_stripes``
    leave the surplus shards idle with empty stripe ranges), and a worker
    that dies raises ``RuntimeError`` from :meth:`serve_trace` (no silent
    degradation).  ``element_read_ms=None`` disables the simulated I/O
    model (memory speed; correctness tests).  Each shard gets its *own*
    simulated spindle group, which is the declustered-placement reading of
    the paper's scale-out story: aggregate service capacity grows with the
    shard count while any single shard still bounds its own queueing.
    ``placement`` (a :class:`~repro.placement.PlacementMap` over the same
    stripe count) aligns the shard bounds to placement-group boundaries,
    so one shard maps onto whole placement groups and never splits one.
    ``target_p99_ms`` steers the rebuild with :class:`BoardThrottle`
    (``rebuild_rate`` is then only its starting rate; alone it is a fixed
    chunk rate), and ``priority`` lets user reads preempt queued rebuild
    I/O.  ``fault_plan`` is handed to every shard's
    :class:`ShardServer`.
    """

    def __init__(
        self,
        codec: ArrayImageCodec,
        disks: np.ndarray,
        failed_disk: int,
        n_shards: int,
        *,
        element_read_ms: Optional[float] = None,
        priority_grace_ms: float = 1.0,
        algorithm: str = "u",
        depth: int = 1,
        store_path=None,
        target_p99_ms: Optional[float] = None,
        rebuild_rate: Optional[float] = None,
        rebuild_chunk_stripes: int = 16,
        priority: bool = True,
        placement=None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        lay = codec.code.layout
        if not 0 <= failed_disk < lay.n_disks:
            raise IndexError(f"physical disk {failed_disk} out of range")
        codec.view_image(disks)
        self.codec = codec
        self.disks = disks
        self.failed_disk = failed_disk
        self.n_shards = n_shards
        self.placement = placement
        if placement is not None:
            if placement.n_stripes != codec.n_stripes:
                raise ValueError(
                    f"placement covers {placement.n_stripes} stripes, "
                    f"array has {codec.n_stripes}"
                )
            self.bounds = placement.shard_bounds(n_shards)
        else:
            self.bounds = shard_bounds(codec.n_stripes, n_shards)
        self.element_read_ms = element_read_ms
        self.priority_grace_ms = priority_grace_ms
        self.algorithm = algorithm
        self.depth = depth
        self.store_path = store_path
        self.target_p99_ms = target_p99_ms
        self.rebuild_rate = rebuild_rate
        self.rebuild_chunk_stripes = rebuild_chunk_stripes
        self.priority = priority
        self.fault_plan = fault_plan
        store = SchemePlanCache(store_path) if store_path else None
        self.planner = RecoveryPlanner(
            codec.code, algorithm=algorithm, depth=depth, plan_cache=store
        )
        self.plans = DegradedPlanCache(codec.code, planner=self.planner)
        self._k = lay.k_rows
        #: the logical roles the failed disk plays, ascending
        _, roles = codec.placement.roles_of_disk(failed_disk)
        self._failed_roles = np.unique(roles).tolist()

    # ------------------------------------------------------------------
    def warm_plans(self) -> int:
        """Precompute every degraded plan any shard can need (pre-fork)."""
        return self.plans.warm(self._failed_roles)

    def serve_trace(
        self,
        requests: Sequence[Request],
        timeout_s: float = 600.0,
        startup_grace_s: float = 0.75,
        rebuild: bool = True,
    ) -> ShardedReport:
        """Run the full sharded experiment over one trace.

        Forks one worker per shard, replays the partitioned trace
        open-loop, runs the rebuild inline in a parent thread (patching
        shared memory and notifying shard frontiers), and merges the
        per-shard reports — including each worker's obs snapshot when
        recording is enabled in the parent.
        """
        arr, dks, rws = trace_arrays(requests)
        parts = partition_trace(
            rws, self._k, self.codec.n_stripes, self.n_shards,
            bounds=self.bounds,
        )
        lay = self.codec.code.layout
        warmed_plans = None
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        if ctx.get_start_method() == "fork":
            self.warm_plans()
            warmed_plans = self.plans
        elif self.store_path:
            self.warm_plans()

        state = SharedServingState(
            lay.n_disks,
            self.codec.n_stripes * self._k,
            self.codec.element_size,
            self.n_shards,
        )
        throttle_stats: Dict[str, float] = {}
        throttle = BoardThrottle(
            state.board,
            target_p99_ms=self.target_p99_ms,
            rate=self.rebuild_rate,
        )
        rebuild_result: List[Optional[RebuildResult]] = [None]
        rebuild_error: List[Optional[BaseException]] = [None]
        rebuild_wall: List[Optional[float]] = [None]
        procs = []
        ctrls = []
        try:
            state.disks[:] = self.disks
            results_q = ctx.Queue()
            cfg = {
                "element_read_ms": self.element_read_ms,
                "priority_grace_ms": self.priority_grace_ms,
                "algorithm": self.algorithm,
                "depth": self.depth,
                "store_path": self.store_path,
                "priority": self.priority,
                "fault_plan": self.fault_plan,
                "obs": obs.enabled(),
                "plans": warmed_plans,
            }
            t_start = time.monotonic() + startup_grace_s + 0.1 * self.n_shards
            for i in range(self.n_shards):
                idx = parts[i]
                # one-way control pipe: the rebuild thread is its only
                # writer, the shard its only reader
                reader, writer = ctx.Pipe(duplex=False)
                ctrls.append(writer)
                proc = ctx.Process(
                    target=_shard_main,
                    args=(
                        state.spec,
                        i,
                        self.codec,
                        self.failed_disk,
                        int(self.bounds[i]),
                        int(self.bounds[i + 1]),
                        (arr[idx], dks[idx], rws[idx]),
                        t_start,
                        reader,
                        results_q,
                        cfg,
                    ),
                    name=f"serve-shard-{i}",
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
                # the shard holds the only read end (later forks must not
                # inherit it), so sends fail fast once the shard is gone
                reader.close()

            rebuild_thread = None
            if rebuild:
                rebuild_thread = threading.Thread(
                    target=self._run_rebuild,
                    args=(state, ctrls, throttle, t_start,
                          rebuild_result, rebuild_error, rebuild_wall),
                    name="sharded-rebuild",
                    daemon=True,
                )
                rebuild_thread.start()

            results_by_shard, errors = _collect_results(results_q, procs, timeout_s)
            for p in procs:
                p.join(timeout=10.0)
            if rebuild_thread is not None:
                rebuild_thread.join(timeout=timeout_s)
                if rebuild_error[0] is not None:
                    errors.append(f"rebuild failed: {rebuild_error[0]!r}")
            # snapshot before the board's shared memory is unmapped
            throttle_stats = throttle.stats()
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for writer in ctrls:
                writer.close()
            state.close()

        if errors:
            raise RuntimeError(
                f"sharded serving run failed ({self.n_shards} shards): "
                + "; ".join(errors)
            )

        rec = obs.get_recorder()
        per_shard: List[Dict[str, object]] = []
        all_lat: List[np.ndarray] = []
        all_wake: List[np.ndarray] = []
        duration = 0.0
        for i in range(self.n_shards):
            res = results_by_shard[i]
            all_lat.append(np.asarray(res.pop("latencies")))
            all_wake.append(np.asarray(res.pop("wake_lags")))
            snap = res.pop("obs", None)
            if rec is not None and snap is not None:
                rec.merge_snapshot(snap)
            per_shard.append(res)
            duration = max(duration, float(res["duration_s"]))
        lat = np.concatenate(all_lat)
        ledger = latency_ledger(lat, np.concatenate(all_wake))
        span = float(arr[-1] - arr[0]) if len(arr) > 1 else 0.0
        served = int(sum(r["served"] for r in per_shard))
        return ShardedReport(
            requested_shards=self.n_shards,
            n_shards=len(results_by_shard),
            served=served,
            mismatches=int(sum(r["mismatches"] for r in per_shard)),
            errors=errors,
            p50_ms=ledger["p50_ms"],
            p99_ms=ledger["p99_ms"],
            wake_p50_ms=ledger["wake_p50_ms"],
            wake_p99_ms=ledger["wake_p99_ms"],
            service_p50_ms=ledger["service_p50_ms"],
            service_p99_ms=ledger["service_p99_ms"],
            mean_ms=float(lat.mean() * 1e3) if len(lat) else 0.0,
            duration_s=duration,
            offered_rate_rps=(len(arr) / span) if span > 0 else float("inf"),
            throughput_rps=served / duration if duration > 0 else 0.0,
            rebuild_wall_s=rebuild_wall[0],
            per_shard=per_shard,
            throttle=throttle_stats,
            rebuild_mismatches=(
                rebuild_result[0].mismatches if rebuild_result[0] is not None else 0
            ),
        )

    # ------------------------------------------------------------------
    def _run_rebuild(
        self,
        state: SharedServingState,
        ctrls,
        throttle: BoardThrottle,
        t_start: float,
        out_result,
        out_error,
        out_wall,
    ) -> None:
        """Inline rebuild: recover chunks, patch shared memory, notify shards."""
        k = self._k
        esz = self.codec.element_size
        erm = self.element_read_ms

        def _throttle(chunk) -> None:
            throttle.before_chunk(chunk)
            if erm is not None:
                # the chunk's own disk service time: survivor reads fan
                # out across spindles, so the chunk takes as long as its
                # busiest disk
                busiest = chunk.plan.loads.max() * chunk.n_stripes
                time.sleep(busiest * erm * 1e-3)

        def _on_chunk(chunk, rows: np.ndarray) -> None:
            throttle.after_chunk(chunk)
            row_idx = (
                chunk.stripe_ids[:, None] * k + np.arange(k, dtype=np.int64)
            ).reshape(-1)
            state.patched[row_idx] = rows.reshape(-1, esz)
            # rows are in shared memory now; the pipe send below is the
            # publication point each owning shard synchronizes on
            shard_of = np.searchsorted(self.bounds, chunk.stripe_ids,
                                       side="right") - 1
            # a chunk is one rotation class: each logical disk its plan
            # reads sits on one physical disk for every stripe in it
            plan = chunk.plan
            hosts = self.codec.placement.disk_of_role(
                chunk.stripe_ids[0], plan.logicals
            )
            for shard in np.unique(shard_of):
                ids = chunk.stripe_ids[shard_of == shard]
                per_disk = {
                    int(disk): int(load) * len(ids)
                    for disk, load in zip(hosts, plan.loads)
                }
                try:
                    ctrls[int(shard)].send(("frontier", ids, per_disk))
                except BrokenPipeError:
                    pass  # the shard has finished (or died: reported apart)

        pipe = RebuildPipeline(
            self.codec,
            workers=0,
            chunk_stripes=self.rebuild_chunk_stripes,
            planner=self.planner,
            throttle=_throttle,
            on_chunk=_on_chunk,
        )
        wait = t_start - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        t0 = time.monotonic()
        try:
            out_result[0] = pipe.rebuild(self.disks, self.failed_disk)
        except BaseException as exc:  # reported by serve_trace
            out_error[0] = exc
        finally:
            out_wall[0] = time.monotonic() - t0
