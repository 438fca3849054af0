"""Parallel-I/O array model.

The array serves a stripe's reads from all disks concurrently, so a stripe's
recovery-read time is the *maximum* of its per-disk read times — the central
mechanism of the paper: "the recovery time is determined by the read load on
the most loaded disk" (Sec. II-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.codes.layout import CodeLayout
from repro.disksim.disk import SAVVIO_10K3, DiskParams


class DiskArraySimulator:
    """Timing model of an array of (possibly heterogeneous) disks.

    Parameters
    ----------
    n_disks:
        Array width.
    params:
        Either a single :class:`DiskParams` shared by all disks or one per
        disk (heterogeneous environments, Sec. V-D).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Slow-disk faults
        multiply that disk's read times; latent sector errors add the cost
        of the failed attempt (one positioning + one transfer per retried
        element) when the stripe-aware entry points are used.  Byte-level
        fault semantics live in :mod:`repro.faults` — this class only
        prices them.
    """

    def __init__(
        self,
        n_disks: int,
        params: "DiskParams | Sequence[DiskParams]" = SAVVIO_10K3,
        fault_plan=None,
    ) -> None:
        if n_disks < 1:
            raise ValueError(f"n_disks must be >= 1, got {n_disks}")
        if isinstance(params, DiskParams):
            self.disks: List[DiskParams] = [params] * n_disks
        else:
            params = list(params)
            if len(params) != n_disks:
                raise ValueError(
                    f"need {n_disks} DiskParams, got {len(params)}"
                )
            self.disks = params
        self.n_disks = n_disks
        self.fault_plan = fault_plan

    def _slow_factor(self, disk: int) -> float:
        return self.fault_plan.slow_factor(disk) if self.fault_plan else 1.0

    # ------------------------------------------------------------------
    def rows_by_disk(self, layout: CodeLayout, read_mask: int) -> Dict[int, List[int]]:
        """Split a read mask into per-disk sorted row lists."""
        if layout.n_disks != self.n_disks:
            raise ValueError(
                f"layout has {layout.n_disks} disks, array has {self.n_disks}"
            )
        out: Dict[int, List[int]] = {}
        for disk, row in layout.iter_elements(read_mask):
            out.setdefault(disk, []).append(row)
        return out

    def per_disk_read_times(
        self, layout: CodeLayout, read_mask: int, stripe: Optional[int] = None
    ) -> List[float]:
        """Seconds each disk spends reading its share of a stripe.

        With a fault plan attached, slow-disk factors scale each disk's
        time; when ``stripe`` is given, every latent-sector-error element
        in the read set additionally pays the failed attempt (one
        positioning penalty + one element transfer on its disk).
        """
        by_disk = self.rows_by_disk(layout, read_mask)
        times = []
        for d in range(self.n_disks):
            rows = by_disk.get(d, ())
            t = self.disks[d].read_time_for_rows(rows)
            if self.fault_plan is not None and stripe is not None:
                p = self.disks[d]
                for row in rows:
                    if self.fault_plan.lse_at(stripe, d, row):
                        t += p.positioning_s + p.element_read_s
            times.append(t * self._slow_factor(d))
        recorder = obs.get_recorder()
        if recorder is not None:
            for d, t in enumerate(times):
                if t:
                    recorder.count(f"disksim.busy_s.d{d}", t)
        return times

    def stripe_recovery_time(
        self, layout: CodeLayout, read_mask: int, stripe: Optional[int] = None
    ) -> float:
        """Parallel read time of one stripe: max over disks."""
        return max(
            self.per_disk_read_times(layout, read_mask, stripe), default=0.0
        )

