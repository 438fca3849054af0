"""Ordered chunk runner: kernel calls on persistent threads.

Three engines cut their work into independent chunks whose cost is one
:mod:`ctypes` kernel call: both rebuild engines (one XOR kernel call per
stripe chunk) and the recovery planner (one search kernel call per
failed disk).  A ctypes call releases the GIL, so threads run those
calls in parallel: nothing is forked, no descriptor crosses a pipe and
no buffer needs a shared mapping.

:class:`ChunkRunner` splits a run between the calling thread and its
workers:

* the **calling thread** admits each chunk (the throttle hook, in chunk
  order), keeps at most ``per_worker`` chunks per worker in flight (two
  by default; the planner sets no bound), and delivers
  every finished chunk in chunk order (billing, ``on_chunk``, the
  planner's cache fill);
* a **worker thread** runs only the chunk's work function — the kernel
  call and whatever touches that chunk's state alone.

The threads persist across calls, so a run pays no thread start-up, and
each is bound to a CPU of its own where the platform allows it.
A process forked from the owner inherits the runner but not its threads;
the runner notices the new pid and starts a fresh pool.  Work functions
may record :mod:`repro.obs` spans: each thread keeps its own span stack,
and a worker's outermost span hangs off the span the recorder's owning
thread has open.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: chunks a worker holds at once by default: one running, one queued
_PER_WORKER = 2


def usable_cpus() -> int:
    """How many CPUs this process may run on (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _bind_to_cpu(order: Iterator[int]) -> None:
    """Bind the calling worker thread to a CPU of its own (best effort).

    Left to the scheduler, a woken worker often queues behind a busy
    thread on one CPU while another CPU idles: on a 2-vCPU VM about a
    third of threaded rebuilds ran at serial speed.  Worker ``k`` takes
    the ``k``-th CPU the process may run on, round robin.  Platforms
    without thread affinity (or that refuse it) keep the scheduler's
    placement.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[next(order) % len(cpus)]})
    except (AttributeError, OSError):
        pass


class ChunkRunner:
    """Run per-chunk work inline (``workers <= 1``) or on worker threads.

    ``label`` names the engine in the :class:`RuntimeError` a failed chunk
    raises on the threaded path (``"<label> worker failed on chunk N"``).
    ``per_worker`` bounds the chunks in flight per worker; ``None`` submits
    every chunk at once, for work whose results are small and whose
    chunks vary widely in cost (a slow chunk at the head of the delivery
    order then never leaves a worker idle).
    """

    def __init__(
        self, workers: int, label: str, per_worker: Optional[int] = _PER_WORKER
    ) -> None:
        self.workers = workers
        self.label = label
        self.per_worker = per_worker
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pid = 0

    def threaded(self, n_chunks: int) -> bool:
        """Does a run over ``n_chunks`` chunks use the worker threads?"""
        return self.workers > 1 and n_chunks > 1

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None or self._pid != os.getpid():
            # a forked child inherits the pool object but none of its threads
            self._pool = ThreadPoolExecutor(
                self.workers, thread_name_prefix=f"repro-{self.label}",
                initializer=_bind_to_cpu, initargs=(itertools.count(),),
            )
            self._pid = os.getpid()
        return self._pool

    def run(
        self,
        chunks: Sequence[T],
        work: Callable[[T], R],
        deliver: Callable[[T, R], None],
        admit: Optional[Callable[[T], None]] = None,
    ) -> None:
        """``admit``, ``work`` and ``deliver`` every chunk, in chunk order.

        Inline, the three run back to back and an exception from ``work``
        propagates as is.  Threaded, ``work`` runs on a worker while this
        thread admits the chunks behind it; an exception from ``work`` on
        chunk ``i`` (its position in ``chunks``) raises
        :class:`RuntimeError` naming it.  Whatever stops a threaded run,
        the chunks in flight are drained first — the ones not yet started
        are cancelled — so no worker is still writing when it returns.
        """
        if not self.threaded(len(chunks)):
            for chunk in chunks:
                if admit is not None:
                    admit(chunk)
                deliver(chunk, work(chunk))
            return
        pool = self._executor()
        bound = (
            len(chunks) if self.per_worker is None
            else self.per_worker * self.workers
        )
        inflight: deque = deque()  # (position, chunk, future), in order
        try:
            for i, chunk in enumerate(chunks):
                if admit is not None:
                    admit(chunk)
                inflight.append((i, chunk, pool.submit(work, chunk)))
                if len(inflight) >= bound:
                    self._deliver_head(inflight, deliver)
            while inflight:
                self._deliver_head(inflight, deliver)
        finally:
            futures = [fut for _, _, fut in inflight]
            for fut in futures:
                fut.cancel()
            wait(futures)

    def _deliver_head(self, inflight: deque, deliver: Callable) -> None:
        """Wait for the oldest chunk in flight and deliver it."""
        i, chunk, fut = inflight[0]
        try:
            result = fut.result()
        except Exception as exc:
            raise RuntimeError(
                f"{self.label} worker failed on chunk {i}: {exc!r}"
            ) from exc
        inflight.popleft()
        deliver(chunk, result)
