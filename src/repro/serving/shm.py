"""Shared-memory state for the sharded serving engine.

The single-process :class:`~repro.serving.engine.ServingEngine` keeps its
single-flight table, patched image and rebuild frontier as ordinary
process memory guarded by locks.  Sharding the engine across worker
processes replaces that with three named ``multiprocessing.shared_memory``
blocks plus a picklable :class:`ServingStateSpec` that workers attach by
name — the creator unlinks, workers only close.  (The rebuild pipeline
needs none of this: its workers are forked per rebuild and share an
anonymous mapping, so there is no name to attach or unlink.)  The blocks:

* **disks** — the pristine encoded per-disk images,
  ``n_disks x total_rows x element_size`` bytes, written once by the
  parent before any worker starts.  This block includes the failed
  disk's true bytes: the serving path never *reads* them as a source,
  but workers verify every degraded/patched answer against them, so no
  separate expected image has to be shipped.
* **patched** — ``total_rows x element_size`` bytes of rebuilt rows of
  the failed disk, written by the parent's rebuild loop.  Workers only
  read rows of stripes they have seen a frontier notification for, and
  notifications are sent *after* the rows are written — the control
  queue's internal lock gives the cross-process happens-before, so no
  torn row is ever served.
* **board** — an ``n_shards x BOARD_FIELDS`` float64 latency/progress
  board.  Each worker owns (exclusively writes) its row; the parent's
  rebuild throttle reads the whole board to steer chunk admission on the
  worst per-shard p99.  Readers may observe a row mid-update — each
  field is individually atomic enough for steering, which tolerates a
  stale mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: per-shard board row layout (float64 each)
BOARD_FIELDS = 8
(
    BOARD_SERVED,
    BOARD_P50_MS,
    BOARD_P99_MS,
    BOARD_BACKLOG,
    BOARD_DEGRADED,
    BOARD_DIRECT,
    BOARD_PATCHED,
    BOARD_MISMATCHES,
) = range(BOARD_FIELDS)


@dataclass(frozen=True)
class ServingStateSpec:
    """Names + geometry a worker needs to attach (picklable)."""

    disks_name: str
    patched_name: str
    board_name: str
    n_disks: int
    total_rows: int
    element_size: int
    n_shards: int


class SharedServingState:
    """Owner/attachment handle over the three serving shm blocks."""

    def __init__(self, n_disks: int, total_rows: int, element_size: int,
                 n_shards: int) -> None:
        if min(n_disks, total_rows, element_size, n_shards) < 1:
            raise ValueError("all dimensions must be >= 1")
        self._owner = True
        self._shm_disks = None
        self._shm_patched = None
        self._shm_board = None
        disks_bytes = n_disks * total_rows * element_size
        patched_bytes = total_rows * element_size
        board_bytes = n_shards * BOARD_FIELDS * 8
        # creation is all-or-nothing: if any later block (or anything else
        # in this constructor) fails, the blocks already created are both
        # closed AND unlinked — a half-built state must not leak named
        # segments into /dev/shm
        try:
            self._shm_disks = shared_memory.SharedMemory(
                create=True, size=disks_bytes
            )
            self._shm_patched = shared_memory.SharedMemory(
                create=True, size=patched_bytes
            )
            self._shm_board = shared_memory.SharedMemory(
                create=True, size=board_bytes
            )
            self.spec = ServingStateSpec(
                disks_name=self._shm_disks.name,
                patched_name=self._shm_patched.name,
                board_name=self._shm_board.name,
                n_disks=n_disks,
                total_rows=total_rows,
                element_size=element_size,
                n_shards=n_shards,
            )
            self._build_views()
            self.board[:] = 0.0
        except BaseException:
            self._unwind_partial()
            raise

    def _unwind_partial(self) -> None:
        """Close and unlink whichever blocks a failed constructor created."""
        self.disks = self.patched = self.board = None  # release buffer views
        for name in ("_shm_disks", "_shm_patched", "_shm_board"):
            shm = getattr(self, name, None)
            if shm is None:
                continue
            try:
                shm.close()
            except OSError:  # pragma: no cover - best-effort unwind
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            setattr(self, name, None)

    @classmethod
    def attach(cls, spec: ServingStateSpec) -> "SharedServingState":
        """Worker-side view of an existing state (does not own the blocks)."""
        self = cls.__new__(cls)
        self._owner = False
        self._shm_disks = shared_memory.SharedMemory(name=spec.disks_name)
        self._shm_patched = shared_memory.SharedMemory(name=spec.patched_name)
        self._shm_board = shared_memory.SharedMemory(name=spec.board_name)
        self.spec = spec
        self._build_views()
        return self

    def _build_views(self) -> None:
        spec = self.spec
        self.disks = np.ndarray(
            (spec.n_disks, spec.total_rows, spec.element_size),
            dtype=np.uint8,
            buffer=self._shm_disks.buf,
        )
        self.patched = np.ndarray(
            (spec.total_rows, spec.element_size),
            dtype=np.uint8,
            buffer=self._shm_patched.buf,
        )
        self.board = np.ndarray(
            (spec.n_shards, BOARD_FIELDS),
            dtype=np.float64,
            buffer=self._shm_board.buf,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (and the blocks, if it owns them)."""
        self.disks = None
        self.patched = None
        self.board = None
        for shm in (self._shm_disks, self._shm_patched, self._shm_board):
            if shm is None:
                continue
            try:
                shm.close()
            except OSError:  # pragma: no cover - already closed
                pass
            if self._owner:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._shm_disks = None
        self._shm_patched = None
        self._shm_board = None

    def __enter__(self) -> "SharedServingState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
