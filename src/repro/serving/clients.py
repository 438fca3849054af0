"""Serving request traces built on the disksim workload generators.

Request sequences come from the existing
:class:`~repro.disksim.workload.HotspotWorkload` /
:class:`~repro.disksim.workload.SequentialScanWorkload` generators with
``k_rows`` set to the *disk-global* row count, so one generator row maps
directly onto the serving engine's ``(disk, row)`` address space.
"""

from __future__ import annotations

from typing import List

from repro.disksim.workload import (
    HotspotWorkload,
    Request,
    SequentialScanWorkload,
)

#: workload kinds understood by :func:`build_workload_requests`
WORKLOAD_KINDS = ("hotspot", "sequential")


def build_workload_requests(
    kind: str,
    n_disks: int,
    total_rows: int,
    failed_disk: int,
    count: int,
    seed: int = 0,
    rate_per_s: float = 1000.0,
) -> List[Request]:
    """``count`` requests of the named workload shape.

    ``hotspot`` skews 80% of uniform Poisson traffic onto the failed
    disk (the worst case for degraded service); ``sequential`` scans the
    failed disk front to back (scrub/backup traffic — every read is
    degraded until the rebuild frontier passes it).  ``rate_per_s`` sets
    the trace's offered rate.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    if kind == "hotspot":
        gen = HotspotWorkload(
            rate_per_s=rate_per_s,
            n_disks=n_disks,
            k_rows=total_rows,
            hot_disks=(failed_disk,),
            hot_fraction=0.8,
            seed=seed,
        )
        duration = count / rate_per_s
        reqs = gen.generate(duration)
        while len(reqs) < count:
            duration *= 2
            reqs = gen.generate(duration)
        return reqs[:count]
    if kind == "sequential":
        interval = 1.0 / rate_per_s
        gen = SequentialScanWorkload(
            disk=failed_disk, k_rows=total_rows, interval_s=interval
        )
        return gen.generate(count * interval)[:count]
    raise ValueError(f"unknown workload kind {kind!r} (use {WORKLOAD_KINDS})")
