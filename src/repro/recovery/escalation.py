"""Failure escalation: a second disk dies mid-recovery.

The window of vulnerability is not hypothetical — when disk B fails while
disk A's rebuild is underway, the remaining work is a *mixed* situation:
A's already-rebuilt rows are available in memory / on the spare (free), the
rest of A and all of B are lost.  Re-planning from scratch would forget the
free elements; this module plans the continuation properly:

* already-recovered elements of A join the failure mask but receive a
  zero-cost sentinel option ordered before everything else, so the search
  may lean on them exactly like the iteration algorithm leans on
  earlier-recovered elements;
* the resulting scheme's sentinel slots are skipped at execution time and
  their payloads taken from the caller's in-memory copies, which the
  remaining slots then read like surviving elements.

:func:`execute_in_place` is the fault ladder's only byte path: the
:class:`~repro.recovery.resilient.ResilientExecutor` runs every stripe,
escalated or not, through it as one compiled batch-of-1 kernel pass.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional

import numpy as np

from repro.codec.batch import ColumnSet, CompiledPlanCache
from repro.codes.base import ErasureCode
from repro.equations.enumerate import (
    EquationOption,
    get_recovery_equations,
)
from repro.recovery.multifailure import UnrecoverableError
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.search import generate_scheme
from repro.recovery.ualgorithm import search_key

#: the fault ladder's compiled plans, shared by every executor
_COMPILED = CompiledPlanCache()


def escalated_scheme(
    code: ErasureCode,
    primary_disk: int,
    recovered_rows: Iterable[int],
    secondary_disk: int,
    algorithm: str = "u",
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Plan the continuation after ``secondary_disk`` fails mid-rebuild.

    Parameters
    ----------
    primary_disk:
        The disk whose rebuild was in progress.
    recovered_rows:
        Rows of the primary disk already rebuilt (available at no read
        cost).
    secondary_disk:
        The newly failed disk.
    algorithm:
        Any name of :data:`~repro.recovery.ualgorithm.ALGORITHMS`; a
        baseline's continuation is searched with the key the table gives it.

    Returns a scheme over the *entire* failed element set; slots whose
    element was already recovered carry the sentinel equation ``1 << eid``
    (recognisable by :func:`execute_escalated`).
    """
    lay = code.layout
    cost, label = search_key(algorithm, lay, baselines=True)
    if primary_disk == secondary_disk:
        raise ValueError("primary and secondary disks must differ")
    recovered_rows = sorted(set(recovered_rows))
    for row in recovered_rows:
        if not 0 <= row < lay.k_rows:
            raise ValueError(f"row {row} out of range")
    full_mask = lay.disk_mask(primary_disk) | lay.disk_mask(secondary_disk)
    if not code.is_recoverable(full_mask):
        raise UnrecoverableError(
            f"disks {primary_disk} and {secondary_disk} together exceed "
            f"{code.name}'s tolerance"
        )
    free_mask = 0
    for row in recovered_rows:
        free_mask |= 1 << lay.eid(primary_disk, row)

    rec = get_recovery_equations(
        code, full_mask, depth=depth, ensure_complete=True
    )
    # give already-recovered elements a free sentinel option; the sentinel
    # wins any cost comparison (empty read set), so those slots never read
    for i, f in enumerate(rec.failed_eids):
        if (free_mask >> f) & 1:
            rec.options[i] = [EquationOption(0, 1 << f)]

    return generate_scheme(
        rec, cost, algorithm=f"escalated_{label}", max_expansions=max_expansions
    )


def execute_escalated(
    scheme: RecoveryScheme,
    stripe: np.ndarray,
    in_memory: Dict[int, np.ndarray],
) -> Dict[int, np.ndarray]:
    """:func:`execute_in_place` on a copy of ``stripe``."""
    return execute_in_place(scheme, ColumnSet(stripe.copy()[None]), in_memory)


def execute_in_place(
    scheme: RecoveryScheme,
    stripe: ColumnSet,
    in_memory: Dict[int, np.ndarray],
) -> Dict[int, np.ndarray]:
    """Execute a plan, sentinel slots included, on a stripe buffer.

    ``stripe`` is a caller-owned ``(n_elements, element_size)`` buffer
    holding every surviving element the plan reads, as a batch-of-1
    :class:`~repro.codec.batch.ColumnSet`.  ``in_memory`` maps
    already-recovered eids to their payloads; each sentinel slot's
    payload is written into its row, and the compiled plan (memoised
    per module) reads it like a survivor.  Returns the rebuilt elements
    by eid, sentinel payloads included.

    Slots run in *dependency* order, not list order: an equation may
    reference a failed element whose slot appears later in
    ``failed_eids`` (e.g. a sentinel for a high eid feeding a low eid's
    equation).  A genuinely unsatisfiable plan — circular or missing
    dependencies — raises :class:`ValueError` naming the stuck elements.
    """
    buf = stripe.cols[0][0]
    failed_mask = scheme.failed_mask
    out: Dict[int, np.ndarray] = {}
    sentinels = 0
    pending = []
    for f, eq in zip(scheme.failed_eids, scheme.equations):
        if eq == 1 << f:  # sentinel: already recovered
            if f not in in_memory:
                raise KeyError(f"element {f} marked in-memory but not supplied")
            out[f] = buf[f] = in_memory[f]
            sentinels |= 1 << f
        else:
            pending.append((f, eq))
    done, order = sentinels, []
    while pending:
        waiting = []
        for f, eq in pending:
            if eq & failed_mask & ~(done | (1 << f)):
                waiting.append((f, eq))
            else:
                order.append((f, eq))
                done |= 1 << f
        if len(waiting) == len(pending):
            missing = {}
            for f, eq in waiting:
                m = eq & failed_mask & ~(done | (1 << f))
                missing[f] = [e for e in range(m.bit_length()) if m >> e & 1]
            raise ValueError(
                f"escalated plan is not executable: elements "
                f"{sorted(missing)} wait on failed elements that are never "
                f"recovered before them ({missing})"
            )
        pending = waiting

    eids = [f for f, _ in order]
    runnable = scheme
    if eids != scheme.failed_eids:
        # the sentinels leave the failed mask and their payloads sit in
        # the buffer, so the compiled plan reads them like survivors
        runnable = replace(
            scheme,
            failed_mask=failed_mask & ~sentinels,
            failed_eids=eids,
            equations=[eq for _, eq in order],
        )
    rows = np.empty((1, len(eids), buf.shape[1]), dtype=np.uint8)
    _COMPILED.reconstructor(runnable).recover_batch_into(stripe, rows)
    out.update(zip(eids, rows[0]))
    return out
