"""``repro.pipeline`` — the whole-disk rebuild engine.

One engine (:class:`~repro.pipeline.pool.PoolRebuild`) rebuilds a dead
disk of any placement: it groups the affected stripes by the role the
dead disk plays, cuts each group into chunks, and runs each chunk as one
kernel pass that reads the survivors in place, writes the recovered rows
into the result and verifies them against the stored rows.  The chunks
run inline or on persistent worker threads through the ordered chunk
runner the planner shares (:mod:`repro.runner`), and reads are billed per
disk through the placement table.  A rotated array is the one-group flat
pool: :class:`~repro.pipeline.engine.RebuildPipeline` rebuilds a disk
image in place through the same engine.  Either can be wired to the
persistent :class:`~repro.recovery.plancache.SchemePlanCache` so repeated
rebuilds skip scheme search entirely.  See the "Rebuild throughput"
section of ``docs/performance.md`` and ``docs/placement.md``.
"""

from repro.pipeline.engine import RebuildPipeline
from repro.pipeline.pool import PoolRebuild, RebuildChunk, RebuildResult

__all__ = [
    "PoolRebuild",
    "RebuildChunk",
    "RebuildPipeline",
    "RebuildResult",
]
