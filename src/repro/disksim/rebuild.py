"""Full rebuild modeling: recovery reads plus hot-spare write-back.

The paper's *recovery time* deliberately excludes writing the rebuilt data
to the replacement disk (Sec. I): with the write-back streamed to a
dedicated spare in the background, reads are the critical path.  This
module models the complete rebuild so that claim is checkable rather than
assumed:

* the spare absorbs ``k`` sequential element writes per stripe at
  ``seq_write_bw_mb`` (131 MB/s on the paper's drives — over twice the read
  bandwidth, which is why the paper's assumption holds there);
* per stripe, the pipeline is gated by ``max(read_time, write_time)``; the
  rebuild makespan adds one final write drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.codes.base import ErasureCode
from repro.disksim.disk import SAVVIO_10K3, DiskParams
from repro.disksim.recovery_sim import simulate_stack_recovery
from repro.recovery.scheme import RecoveryScheme


@dataclass(frozen=True)
class RebuildTiming:
    """Timing decomposition of a pipelined rebuild."""

    read_limited_s: float    # sum of per-stripe read times (paper's metric)
    write_limited_s: float   # sum of per-stripe spare-write times
    makespan_s: float        # pipelined total
    read_is_critical: bool

    @property
    def write_back_overhead_percent(self) -> float:
        """Extra time the write-back adds over the read-only recovery."""
        if self.read_limited_s == 0:
            return 0.0
        return (self.makespan_s - self.read_limited_s) / self.read_limited_s * 100.0


def simulate_rebuild(
    code: ErasureCode,
    schemes: Sequence[RecoveryScheme],
    stacks: int = 20,
    params: "DiskParams | Sequence[DiskParams]" = SAVVIO_10K3,
    spare: DiskParams = SAVVIO_10K3,
) -> RebuildTiming:
    """Pipelined rebuild of one failed disk onto a hot spare.

    The read side is :func:`~repro.disksim.recovery_sim.simulate_stack_recovery`
    (so ``read_limited_s`` is its ``recovery_time_s``).  Per stripe the
    reads (parallel, max over disks) and the spare's ``k``
    sequential element writes overlap; each stage of the pipeline advances
    at the slower of the two, and the spare drains one stripe after the
    last read completes.
    """
    reads = simulate_stack_recovery(code, schemes, stacks, params)
    write_total = 0.0
    pipeline = 0.0
    last_write = 0.0
    for read_t, scheme in zip(reads.stripe_times_s, schemes):
        write_t = spare.positioning_s + len(scheme.failed_eids) * spare.element_write_s
        write_total += write_t
        pipeline += max(read_t, write_t)
        last_write = write_t
    write_total *= stacks
    makespan = pipeline * stacks + last_write  # final drain

    return RebuildTiming(
        read_limited_s=reads.recovery_time_s,
        write_limited_s=write_total,
        makespan_s=makespan,
        read_is_critical=reads.recovery_time_s >= write_total,
    )
