"""Ordered chunk runner: kernel calls on persistent threads.

Both rebuild engines cut their work into chunks and run one XOR kernel
call per chunk.  The kernel is a :mod:`ctypes` call, which releases the
GIL, so threads run it in parallel over one shared image: nothing is
forked, no descriptor crosses a pipe and no buffer needs a shared
mapping.

:class:`ChunkRunner` splits a rebuild between the calling thread and its
workers:

* the **calling thread** admits each chunk (the throttle hook, in chunk
  order), keeps at most two chunks per worker in flight, and delivers
  every finished chunk in chunk order (billing, ``on_chunk``);
* a **worker thread** runs only the chunk's work function — the kernel
  call and whatever touches that chunk's bytes alone.

The threads persist across calls, so a rebuild pays no thread start-up,
and each is bound to a CPU of its own where the platform allows it.
A process forked from the owner inherits the runner but not its threads;
the runner notices the new pid and starts a fresh pool.  Work functions
record no :mod:`repro.obs` spans: the recorder's span stack is
single-threaded by contract.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: chunks a worker holds at once: one running, one queued behind it
_PER_WORKER = 2


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
    """

    def __init__(self, workers: int, label: str) -> None:
        self.workers = workers
        self.label = label
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
        bound = _PER_WORKER * self.workers
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
