"""Whole-disk rebuild of a rotated array image, as a one-group flat pool.

A rotated array (:class:`~repro.codec.image.ArrayImageCodec`) puts role
``l`` of stripe ``s`` on disk ``(l + s) mod n`` — exactly
:func:`~repro.placement.FlatPlacement` with ``n_pool = w``.  So
:class:`RebuildPipeline` is the pool engine
(:class:`~repro.pipeline.pool.PoolRebuild`) over that placement: the
same grouping, chunks, kernel pass, in-pass verification and billing,
over the codec's own :attr:`~repro.codec.image.ArrayImageCodec.placement`.
Only the storage differs.  The engine reads the disk image **in place**:
the stripes in which the failed disk plays one role form one rotation
class, whose columns are whole-disk views
(:meth:`~repro.codec.image.ArrayImageCodec.rotation_columns`), so nothing
is gathered, staged or copied; each chunk's kernel call picks its stripes
out of them by id, writes the rebuilt rows into their place in the
rebuilt image, and compares each with the failed disk's stored row
while it is still in cache (``mismatches`` counts the stripes that
differ).

The per-stripe oracle this engine is checked against is
:meth:`~repro.codec.image.ArrayImageCodec.recover_disk`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.codec.image import ArrayImageCodec
from repro.pipeline.pool import PoolRebuild, RebuildChunk, RebuildResult
from repro.placement.pool import PoolStore
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.planner import RecoveryPlanner


class RebuildPipeline(PoolRebuild):
    """Streaming multi-threaded rebuild of one failed physical disk.

    Parameters
    ----------
    codec:
        The array geometry (code, element size, stripe count, rotation).
    workers / chunk_stripes / planner / plan_cache / algorithm / depth /
    throttle / on_chunk:
        As in :class:`~repro.pipeline.pool.PoolRebuild`.  The serving
        engine's :class:`~repro.serving.sharded.BoardThrottle` admits
        chunks through ``throttle`` and paces itself on ``on_chunk``.
    """

    _label = "pipeline"

    def __init__(
        self,
        codec: ArrayImageCodec,
        workers: int = 2,
        chunk_stripes: int = 64,
        planner: Optional[RecoveryPlanner] = None,
        plan_cache: Optional[SchemePlanCache] = None,
        algorithm: str = "u",
        depth: int = 1,
        throttle: Optional[Callable[[RebuildChunk], None]] = None,
        on_chunk: Optional[Callable[[RebuildChunk, np.ndarray], None]] = None,
    ) -> None:
        # the geometry only: the bytes are the disk image given to rebuild
        array = PoolStore(codec.code, codec.placement, codec.element_size)
        super().__init__(
            array,
            chunk_stripes=chunk_stripes,
            planner=planner,
            plan_cache=plan_cache,
            algorithm=algorithm,
            depth=depth,
            throttle=throttle,
            workers=workers,
            on_chunk=on_chunk,
        )
        self.codec = codec

    def rebuild(
        self,
        disks: np.ndarray,
        failed_physical: int,
        patch: bool = False,
    ) -> RebuildResult:
        """Rebuild ``disks[failed_physical]`` from the survivors.

        The failed disk's stored rows are read only as comparison targets.
        ``patch=True`` additionally writes the rebuilt rows back into
        ``disks`` in place (hot-spare semantics).
        """
        codec = self.codec
        codec.view_image(disks)
        if not 0 <= failed_physical < codec.code.layout.n_disks:
            raise IndexError(f"physical disk {failed_physical} out of range")
        result = self._rebuild(
            failed_physical, lambda ids: codec.rotation_columns(disks, ids[0])
        )
        if patch:
            disks[failed_physical] = result.image
        return result
