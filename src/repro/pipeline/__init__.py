"""``repro.pipeline`` — high-throughput whole-disk rebuild engine.

The streaming data plane for single-disk recovery: chunked stripe
iteration (:mod:`repro.pipeline.chunks`) and the zero-copy pipeline
itself (:mod:`repro.pipeline.engine`), whose inline path and forked
workers read survivors in place from the disk image and XOR recovered
rows in place into the rebuilt image — no staging copy, no named shared
memory.  It is wired to the persistent
:class:`~repro.recovery.plancache.SchemePlanCache` so repeated rebuilds
skip scheme search entirely.  Pool-scale rebuild — one
dead disk of a placed fleet, reads declustered across hundreds of disks —
lives in :mod:`repro.pipeline.pool`.  See the "Rebuild throughput" section
of ``docs/performance.md`` and ``docs/placement.md``.
"""

from repro.pipeline.chunks import StripeChunk, iter_chunks, rotation_classes
from repro.pipeline.engine import RebuildPipeline, RebuildResult, rebuild_disk
from repro.pipeline.pool import (
    PoolRebuild,
    PoolRebuildResult,
    compare_placements,
    rebuild_pool_disk,
)

__all__ = [
    "PoolRebuild",
    "PoolRebuildResult",
    "RebuildPipeline",
    "RebuildResult",
    "StripeChunk",
    "compare_placements",
    "iter_chunks",
    "rebuild_disk",
    "rebuild_pool_disk",
    "rotation_classes",
]
