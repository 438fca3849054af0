"""Whole-recovery simulation with stack rotation (paper Sec. VI).

The experimental methodology of the paper: 20 *stacks*, each stack holding
every logical-to-physical disk mapping rotation, so a physical disk failure
exercises every logical single-disk-failure situation with equal weight and
the measured speed is independent of which physical disk died.  Recovery
proceeds stripe by stripe — the per-stripe reads are issued in parallel and
the stripe completes when its most loaded disk finishes — and the recovery
speed is recovered bytes over total read time.  Write-back of recovered data
is excluded, exactly as the paper defines recovery time (Sec. I).
:func:`recovery_hours_for_disk` turns a simulated speed into the repair
window that :mod:`repro.fleet` prices in data-loss probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.codes.base import ErasureCode
from repro.disksim.array import DiskArraySimulator
from repro.disksim.disk import SAVVIO_10K3, DiskParams
from repro.recovery.scheme import RecoveryScheme


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a simulated whole-disk recovery."""

    recovery_time_s: float
    data_recovered_mb: float
    n_stripes: int
    #: one stack's per-stripe read times, one per logical situation, in
    #: scheme order (what :func:`~repro.disksim.rebuild.simulate_rebuild`
    #: pipelines against the spare's writes)
    stripe_times_s: Tuple[float, ...] = ()

    @property
    def speed_mb_s(self) -> float:
        """Recovery speed — the paper's Figure 4 metric."""
        if self.recovery_time_s == 0:
            return float("inf")
        return self.data_recovered_mb / self.recovery_time_s


def recovery_hours_for_disk(
    disk_capacity_gb: float, recovery_speed_mb_s: float
) -> float:
    """Hours to rebuild a whole disk at the given recovery speed."""
    if recovery_speed_mb_s <= 0:
        raise ValueError("recovery speed must be positive")
    seconds = disk_capacity_gb * 1024.0 / recovery_speed_mb_s
    return seconds / 3600.0


def simulate_stack_recovery(
    code: ErasureCode,
    schemes: Sequence[RecoveryScheme],
    stacks: int = 20,
    params: "DiskParams | Sequence[DiskParams]" = SAVVIO_10K3,
) -> RecoveryResult:
    """Simulate recovering one failed physical disk over rotated stripes.

    Parameters
    ----------
    code:
        The erasure code (defines stripe geometry).
    schemes:
        One scheme per *logical* failure situation that occurs in the
        rotation — typically the per-data-disk schemes from a
        :class:`~repro.recovery.planner.RecoveryPlanner`.  Each situation
        appears once per stack, matching the equal-occurrence property of
        stacks.
    stacks:
        How many stacks to process (the paper uses 20).
    params:
        Disk timing model(s).

    Notes
    -----
    Thanks to rotation the result does not depend on which physical disk
    failed, so the simulation simply sums the per-situation stripe times.
    """
    if not schemes:
        raise ValueError("need at least one scheme")
    if stacks < 1:
        raise ValueError(f"stacks must be >= 1, got {stacks}")
    lay = code.layout
    array = DiskArraySimulator(lay.n_disks, params)
    elem_mb = array.disks[0].element_mb

    times = []
    time_per_stack = 0.0
    recovered_per_stack_mb = 0.0
    for scheme in schemes:
        times.append(array.stripe_recovery_time(lay, scheme.read_mask))
        time_per_stack += times[-1]
        recovered_per_stack_mb += len(scheme.failed_eids) * elem_mb

    return RecoveryResult(
        recovery_time_s=time_per_stack * stacks,
        data_recovered_mb=recovered_per_stack_mb * stacks,
        n_stripes=len(schemes) * stacks,
        stripe_times_s=tuple(times),
    )

