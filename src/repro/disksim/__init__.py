"""Disk-array timing simulator — the substitute for the paper's testbed.

The paper measures recovery speed on 16 Seagate Savvio 10K.3 SAS disks
(ST9300603SS: 300 GB, 10 000 rpm, 16 MB cache, 56.1 MB/s peak read,
131 MB/s peak write) with 16 MB elements.  We model exactly the mechanisms
that make balanced schemes win there:

* **parallel I/O** — a stripe's recovery takes as long as its most loaded
  disk (:meth:`~repro.disksim.array.DiskArraySimulator.stripe_recovery_time`);
* **sequential vs. random reads** — adjacent elements on a disk merge into
  one sequential run (the OS I/O-merge the paper mentions in Sec. VI-B);
  every run pays one seek + rotational latency, which is why the measured
  improvement trails the parallel-read-access theory;
* **stack rotation** — logical-to-physical disk mappings rotate stripe to
  stripe (Hafner's stack notion [15]), so a physical disk failure exercises
  every logical failure situation equally (Sec. VI-A).

:mod:`repro.disksim.events` adds an event-driven queueing simulator for
on-line recovery competing with user traffic.
"""

from repro.disksim.array import DiskArraySimulator
from repro.disksim.disk import SAVVIO_10K3, DiskParams
from repro.disksim.events import EventDrivenArray, OnlineRecoveryResult
from repro.disksim.rebuild import RebuildTiming, simulate_rebuild
from repro.disksim.recovery_sim import (
    RecoveryResult,
    recovery_hours_for_disk,
    simulate_stack_recovery,
)
from repro.disksim.workload import (
    HotspotWorkload,
    PoissonWorkload,
    Request,
    SequentialScanWorkload,
)

__all__ = [
    "DiskArraySimulator",
    "DiskParams",
    "EventDrivenArray",
    "HotspotWorkload",
    "OnlineRecoveryResult",
    "PoissonWorkload",
    "SequentialScanWorkload",
    "RebuildTiming",
    "RecoveryResult",
    "Request",
    "SAVVIO_10K3",
    "recovery_hours_for_disk",
    "simulate_rebuild",
    "simulate_stack_recovery",
]
