"""repro — load-balanced recovery schemes for any erasure code.

Reproduction of Luo & Shu, "Load-Balanced Recovery Schemes for Single-disk
Failure in Storage Systems with Any Erasure Code", ICPP 2013.

Quickstart::

    from repro import make_code, c_scheme, u_scheme, khan_scheme

    code = make_code("rdp", 8)          # 6 data + 2 parity disks
    scheme = u_scheme(code, failed_disk=0)
    print(scheme.summary())             # total reads, per-disk loads
    print(scheme.render())              # Figure-1 style stripe picture

Package map:

* :mod:`repro.gf2` — GF(2)/GF(2^w) linear algebra substrate.
* :mod:`repro.codes` — RDP, EVENODD, STAR, Blaum-Roth, Liberation, ... with
  shortening; :func:`make_code` builds any family at any disk count.
* :mod:`repro.equations` — recovery-equation enumeration (``Get_Rec_Equ``).
* :mod:`repro.recovery` — naive / Khan / C- / U-algorithm generators, the
  heterogeneous and multi-failure variants, and the scheme planner.
* :mod:`repro.codec` — byte-level encode / recover / verify.
* :mod:`repro.faults` — injectable fault plans (latent sector errors, silent
  corruption, slow disks, whole-disk death) and the faulty stripe store.
* :mod:`repro.disksim` — disk-array timing + event-driven on-line recovery.
* :mod:`repro.analysis` — figure/series generators and metrics.
* :mod:`repro.runner` — the ordered kernel-thread runner shared by the
  planner and the rebuild engines.
"""

from repro.analysis import (
    SchemeCache,
    aggregate_improvements,
    figure3_series,
    figure4_series,
)
from repro.codec import StripeCodec, verify_scheme_on_random_data
from repro.codes import (
    CodeLayout,
    ErasureCode,
    list_families,
    make_code,
)
from repro.disksim import (
    SAVVIO_10K3,
    DiskArraySimulator,
    DiskParams,
    simulate_stack_recovery,
)
from repro.equations import get_recovery_equations
from repro.faults import FaultPlan, FaultyStripeStore
from repro.recovery import (
    RecoveryPlanner,
    RecoveryScheme,
    ResilientExecutor,
    c_scheme,
    khan_scheme,
    naive_scheme,
    recover_failure,
    scheme_for_disk,
    u_scheme,
)

__version__ = "1.0.0"

__all__ = [
    "CodeLayout",
    "DiskArraySimulator",
    "DiskParams",
    "ErasureCode",
    "FaultPlan",
    "FaultyStripeStore",
    "RecoveryPlanner",
    "RecoveryScheme",
    "ResilientExecutor",
    "SAVVIO_10K3",
    "SchemeCache",
    "StripeCodec",
    "aggregate_improvements",
    "c_scheme",
    "figure3_series",
    "figure4_series",
    "get_recovery_equations",
    "khan_scheme",
    "list_families",
    "make_code",
    "naive_scheme",
    "recover_failure",
    "scheme_for_disk",
    "simulate_stack_recovery",
    "u_scheme",
    "verify_scheme_on_random_data",
    "__version__",
]
