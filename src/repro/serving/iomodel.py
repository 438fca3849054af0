"""Simulated disk-time accounting for the serving engine.

The serving benchmark has to show rebuild traffic and user reads fighting
over the same spindles on whatever box CI gives it — typically one core,
where real thread contention is pure noise.  :class:`SimulatedDisksIoModel`
makes the contention deterministic instead: rebuild chunks *book*
wall-clock time against per-disk ``busy_until`` clocks, and every read
books its own and sleeps until its reservation completes, so latencies
reflect queueing physics (arrival order, backlog depth, parallel-disk
maxima), not scheduler luck.

Two service disciplines per disk:

* **FIFO** (``priority=False``) — the request queues behind everything
  already reserved, rebuild chunks included.  This is the unthrottled
  baseline: a degraded read arriving mid-chunk eats the chunk's remaining
  I/O time.
* **preempting** (``priority=True``) — what a QoS-aware I/O scheduler
  does for foreground reads: the read starts after at most
  ``priority_grace_ms`` (the in-flight request it cannot abort) and the
  displaced rebuild backlog is pushed back by the read's service time.

:class:`NullIoModel` charges nothing — the engine then runs at memory
speed, which is what correctness tests want.
"""

from __future__ import annotations

import threading
import time
from typing import Dict


class NullIoModel:
    """No-op I/O accounting: every operation is free."""

    def read_elements(self, per_disk: Dict[int, int], priority: bool = False) -> float:
        return 0.0

    def reserve_background(self, per_disk: Dict[int, int]) -> None:
        return None


class SimulatedDisksIoModel(NullIoModel):
    """Per-disk busy-clock I/O model (see module docstring).

    Parameters
    ----------
    n_disks:
        Physical spindle count.
    element_read_ms:
        Service time charged per element read.
    priority_grace_ms:
        Maximum head-of-line wait a ``priority=True`` read pays.
    """

    def __init__(
        self,
        n_disks: int,
        element_read_ms: float = 0.2,
        priority_grace_ms: float = 1.0,
    ) -> None:
        if n_disks < 1:
            raise ValueError(f"n_disks must be >= 1, got {n_disks}")
        if element_read_ms < 0 or priority_grace_ms < 0:
            raise ValueError("times must be non-negative")
        self.n_disks = n_disks
        self.element_read_s = element_read_ms * 1e-3
        self.priority_grace_s = priority_grace_ms * 1e-3
        self._locks = [threading.Lock() for _ in range(n_disks)]
        self._busy_until = [0.0] * n_disks

    def _reserve(self, disk: int, service_s: float, priority: bool) -> float:
        """Book ``service_s`` of disk time; returns the completion instant."""
        with self._locks[disk]:
            now = time.monotonic()
            backlog = max(0.0, self._busy_until[disk] - now)
            if priority:
                start = now + min(backlog, self.priority_grace_s)
                # the displaced backlog (rebuild chunks already queued) is
                # pushed back by the read's service time
                self._busy_until[disk] = max(self._busy_until[disk], now) + service_s
            else:
                start = now + backlog
                self._busy_until[disk] = start + service_s
            return start + service_s

    def read_elements(self, per_disk: Dict[int, int], priority: bool = False) -> float:
        """Charge one user read's element fan-out; returns seconds spent.

        Disks are read in parallel (the paper's model), so the caller
        waits for the *latest* reservation to complete.
        """
        if not per_disk:
            return 0.0
        t0 = time.monotonic()
        done = max(
            self._reserve(disk, count * self.element_read_s, priority)
            for disk, count in per_disk.items()
            if count > 0
        )
        wait = done - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        return time.monotonic() - t0

    def reserve_background(self, per_disk: Dict[int, int]) -> None:
        """Book rebuild disk time without sleeping on it.

        Used by sharded serving workers when the (remote) rebuild's
        frontier notification arrives: the chunk's survivor reads landed
        on this shard's spindles, so subsequent user reads must queue
        behind them — but the worker itself never blocks on rebuild
        completion, only the reservation ledger moves.
        """
        for disk, count in per_disk.items():
            if count > 0:
                self._reserve(disk, count * self.element_read_s, priority=False)
