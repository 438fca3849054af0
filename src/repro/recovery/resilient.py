"""Fault-tolerant scheme execution: retry, substitute, escalate.

:class:`ResilientExecutor` recovers a scheme stripe by stripe against a
:class:`~repro.faults.store.FaultyStripeStore` whose reads may go wrong,
and climbs a three-rung ladder when they do:

1. **retry** — a failed or checksum-mismatching element read is retried up
   to ``max_retries`` times (transient errors, none in the injected model,
   but the rung exists and is counted);
2. **substitute** — a persistently bad element disqualifies the current
   calculation equation for its slot only; the executor picks the cheapest
   alternative recovery equation from
   :func:`~repro.equations.enumerate.get_recovery_equations` whose read set
   avoids every known-bad element (and whose failed members are already
   decided) — the other slots keep their planned equations;
3. **escalate** — a whole surviving disk dying mid-rebuild voids the plan;
   the executor re-plans via
   :func:`~repro.recovery.escalation.escalated_scheme`, crediting the rows
   of the primary disk already rebuilt in the current stripe, and continues
   with a full double-failure scheme for the remaining stripes.

Each stripe runs in two steps.  **Decide**: walk the slots in order and
read every surviving member of each slot's equation, ascending eid, into
one stripe buffer, each read checked against the store's per-element
CRC32 (:func:`repro.codec.verify.element_checksum`, which is what makes
rung 2 reachable for silent corruption).  The walk chooses the equations
and keeps the :class:`~repro.faults.report.FaultReport`; it XORs nothing.
**Compute**: :func:`~repro.recovery.escalation.execute_in_place` runs the
chosen equations, sentinel slots of an escalated plan included, as one
compiled batch-of-1 kernel pass over that buffer.

With no faults injected the executor performs exactly the planned reads in
the planned order and its output is byte-identical to
:func:`~repro.codec.reconstructor.execute_scheme`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.codec.batch import ColumnSet
from repro.codec.verify import element_checksum
from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.faults.report import FaultReport
from repro.faults.store import DiskDeadError, FaultyStripeStore, ReadError
from repro.recovery.escalation import escalated_scheme, execute_in_place
from repro.recovery.multifailure import UnrecoverableError
from repro.recovery.scheme import RecoveryScheme


class ElementUnreadable(IOError):
    """An element stayed bad after all retries (LSE or corruption)."""

    def __init__(self, eid: int, reason: str) -> None:
        super().__init__(f"element {eid} unreadable: {reason}")
        self.eid = eid
        self.reason = reason


@dataclass
class ResilientResult:
    """Recovered bytes per stripe plus the fault account."""

    recovered: List[Dict[int, np.ndarray]]
    report: FaultReport

    def verify_against(self, stripes: List[np.ndarray]) -> bool:
        """Byte-compare every recovered element with the pristine stripes."""
        for s, out in enumerate(self.recovered):
            for eid, data in out.items():
                if not np.array_equal(data, stripes[s][eid]):
                    return False
        return True


class ResilientExecutor:
    """Execute a recovery scheme stripe-by-stripe, surviving faults.

    Parameters
    ----------
    code:
        The erasure code (needed for re-enumeration and re-planning).
    scheme:
        The planned single-failure recovery scheme (any generator).
    store:
        Byte source with fault injection and checksum metadata.
    max_retries:
        Read attempts beyond the first before an element is declared bad.
    algorithm / depth / max_expansions:
        Passed to :func:`escalated_scheme` when a second disk dies, and to
        the substitute-equation enumeration.
    """

    def __init__(
        self,
        code: ErasureCode,
        scheme: RecoveryScheme,
        store: FaultyStripeStore,
        *,
        max_retries: int = 1,
        algorithm: str = "u",
        depth: int = 2,
        max_expansions: Optional[int] = 200_000,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.code = code
        self.scheme = scheme
        self.store = store
        self.max_retries = max_retries
        self.algorithm = algorithm
        self.depth = depth
        self.max_expansions = max_expansions
        self.report = FaultReport()

        # escalation needs to know which single disk the plan rebuilds
        lay = code.layout
        d = lay.disk_of(scheme.failed_eids[0]) if scheme.failed_eids else 0
        self.primary_disk: Optional[int] = (
            d if scheme.failed_mask == lay.disk_mask(d) else None
        )
        self.secondary_disk: Optional[int] = None
        self._continuation: Optional[RecoveryScheme] = None
        self._stripe_read_mask = 0
        #: the current stripe's verified reads, and which rows hold one
        self._buf = np.empty((0, 0), dtype=np.uint8)
        self._cached = 0
        self._stripe: Optional[ColumnSet] = None  # the kernel's view of _buf
        self._bad_eids: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def run(self, stripes: Optional[Sequence[int]] = None) -> ResilientResult:
        """Recover every stripe in the store, or only ``stripes`` (store
        indices, recovered in that order); raises
        :class:`UnrecoverableError` only when the fault load exceeds the
        code's tolerance (e.g. a third disk death)."""
        recovered: List[Dict[int, np.ndarray]] = []
        order = range(self.store.n_stripes) if stripes is None else stripes
        with obs.span("executor.run", n_stripes=len(order)):
            for s in order:
                with obs.span("executor.stripe", stripe=s):
                    recovered.append(self._recover_stripe(s))
                self.report.stripes_processed += 1
        self.report.elements_read = self.store.total_read_attempts
        obs.count("executor.stripes", self.report.stripes_processed)
        obs.count("executor.elements_read", self.report.elements_read)
        return ResilientResult(recovered, self.report)

    # ------------------------------------------------------------------
    # per-stripe machinery
    # ------------------------------------------------------------------
    def _active_scheme(self) -> RecoveryScheme:
        """The plan in effect: the original one, or the double-failure
        continuation after an escalation."""
        if self.secondary_disk is not None and self._continuation is None:
            self._continuation = escalated_scheme(
                self.code,
                self.primary_disk,
                [],
                self.secondary_disk,
                algorithm=self.algorithm,
                depth=self.depth,
                max_expansions=self.max_expansions,
            )
        return self._continuation or self.scheme

    def _recover_stripe(self, s: int) -> Dict[int, np.ndarray]:
        scheme = self._active_scheme()
        shape = self.store.stripes[s].shape
        if self._buf.shape != shape:
            self._buf = np.empty(shape, dtype=np.uint8)
            self._stripe = ColumnSet(self._buf[None])
        self._stripe_read_mask = 0
        # each surviving element is read from the media once per stripe and
        # reused from the buffer — the paper's read-cost model, and what
        # makes elements_read comparable to scheme.total_reads; proven-bad
        # elements are remembered so no later equation retries them
        self._cached = 0
        self._bad_eids = {}
        chosen: List[int] = []
        in_memory: Dict[int, np.ndarray] = {}
        try:
            self._choose(s, scheme, chosen)
        except DiskDeadError as exc:
            scheme, in_memory = self._escalate(s, exc.disk, scheme, chosen)
            chosen = []
            self._choose(s, scheme, chosen)
        self.report.planned_reads += scheme.total_reads
        self.report.per_stripe_read_masks.append(self._stripe_read_mask)
        return execute_in_place(_decided(scheme, chosen), self._stripe, in_memory)

    def _escalate(
        self, s: int, dead_disk: int, scheme: RecoveryScheme, chosen: List[int]
    ):
        """A surviving disk died mid-stripe: rebuild the slots decided so
        far and re-plan around them.  Returns the escalated plan and the
        rebuilt elements that feed its sentinel slots."""
        if self.secondary_disk is not None:
            raise UnrecoverableError(
                f"disk {dead_disk} died after disk {self.secondary_disk} "
                f"already failed mid-rebuild of disk {self.primary_disk}: "
                f"beyond {self.code.name}'s handled escalation"
            )
        if self.primary_disk is None:
            raise UnrecoverableError(
                f"disk {dead_disk} died during recovery of a non-disk "
                f"failure mask {self.scheme.failed_mask:#x}: escalation "
                "needs a single-disk primary plan"
            )
        partial = execute_in_place(_decided(scheme, chosen), self._stripe, {})
        recovered_rows = sorted(self.code.layout.row_of(f) for f in partial)
        esc = escalated_scheme(
            self.code,
            self.primary_disk,
            recovered_rows,
            dead_disk,
            algorithm=self.algorithm,
            depth=self.depth,
            max_expansions=self.max_expansions,
        )
        self.secondary_disk = dead_disk
        obs.count("executor.escalations")
        self.report.escalations.append(
            {"stripe": s, "secondary_disk": dead_disk, "recovered_rows": recovered_rows}
        )
        return esc, partial

    # ------------------------------------------------------------------
    def _choose(self, s: int, scheme: RecoveryScheme, chosen: List[int]) -> None:
        """Decide stripe ``s``'s equations: append one per slot to ``chosen``
        (slots decided before a mid-stripe :class:`DiskDeadError` stay
        there), reading every surviving member into the stripe buffer.  An
        unreadable member swaps the slot's equation for a substitute whose
        members are then read the same way; sentinel slots read nothing."""
        failed_mask = scheme.failed_mask
        done = 0  # failed elements whose slot is decided
        bad_mask = 0  # surviving elements proven unreadable on this stripe
        for f, eq in zip(scheme.failed_eids, scheme.equations):
            members = eq & ~(1 << f)
            while members:
                low = members & -members
                eid = low.bit_length() - 1
                members ^= low
                if (failed_mask >> eid) & 1:
                    if not (done >> eid) & 1:
                        raise UnrecoverableError(
                            f"equation for element {f} needs failed element "
                            f"{eid} which is not yet recovered"
                        )
                elif not (self._cached >> eid) & 1:
                    try:
                        self._read_verified(s, eid)
                    except ElementUnreadable as bad:
                        bad_mask |= 1 << eid
                        eq = self._substitute(
                            s, f, eq, failed_mask, bad_mask, done, bad.reason
                        )
                        members = eq & ~(1 << f)  # walk the substitute
            chosen.append(eq)
            done |= 1 << f

    def _read_verified(self, s: int, eid: int) -> None:
        """Read one surviving element into the stripe buffer, checksum
        verified, with bounded retries; raises :class:`ElementUnreadable`
        when it stays bad and lets :class:`DiskDeadError` propagate."""
        if eid in self._bad_eids:
            raise ElementUnreadable(eid, self._bad_eids[eid])
        attempt = 0
        while True:
            try:
                data = self.store.read_into(s, eid, self._buf[eid])
            except DiskDeadError:
                # the disk is gone: the attempt costs a controller timeout,
                # not spindle time, so it stays out of the read mask
                raise
            except ReadError:
                reason = "latent sector error"
            else:
                if element_checksum(data) == self.store.checksum(s, eid):
                    self._stripe_read_mask |= 1 << eid
                    self._cached |= 1 << eid
                    return
                reason = "checksum mismatch"
            self._stripe_read_mask |= 1 << eid
            if attempt < self.max_retries:
                attempt += 1
                self.report.record_retry(self.store.layout.disk_of(eid))
                obs.count("executor.retries")
                continue
            if reason == "checksum mismatch":
                self.report.corruptions_detected += 1
                obs.count("executor.corruptions")
            else:
                self.report.latent_errors += 1
                obs.count("executor.latent_errors")
            self._bad_eids[eid] = reason
            raise ElementUnreadable(eid, reason)

    def _substitute(
        self,
        s: int,
        f: int,
        failed_eq: int,
        failed_mask: int,
        bad_mask: int,
        done: int,
        reason: str,
    ) -> int:
        """The cheapest alternative equation for slot ``f`` that avoids
        every known-bad element and only leans on already-rebuilt failed
        elements.

        Two passes: first the bounded-depth enumeration of the planned
        failure mask (cheap, load-balance-sorted options); if every option
        touches a bad element, re-enumerate with the bad elements *promoted
        into the failure mask* — ``ensure_complete`` then guarantees a
        (possibly dense) Gaussian decoding equation whenever the combined
        failure is still within the code's tolerance.  ``done`` holds the
        failed elements whose slot is already decided.
        """
        for ext_mask in (failed_mask, failed_mask | bad_mask):
            rec = get_recovery_equations(
                self.code, ext_mask, depth=self.depth, ensure_complete=True
            )
            if f not in rec.failed_eids:
                continue
            slot = rec.failed_eids.index(f)
            for opt in rec.options[slot]:
                if opt.read_mask & bad_mask:
                    continue
                deps = opt.equation & ext_mask & ~(1 << f)
                if deps & ~done:
                    continue
                obs.count("executor.substitutions")
                self.report.substitutions.append(
                    {
                        "stripe": s,
                        "eid": f,
                        "original_equation": failed_eq,
                        "substitute_equation": opt.equation,
                        "reason": reason,
                    }
                )
                return opt.equation
        raise UnrecoverableError(
            f"no recovery equation for element {f} avoids the bad elements "
            f"{bad_mask:#x} on stripe {s} ({reason})"
        )


def _decided(scheme: RecoveryScheme, equations: List[int]) -> RecoveryScheme:
    """``scheme`` cut to the slots decided so far, with their equations."""
    if equations == scheme.equations:
        return scheme
    n = len(equations)
    return replace(scheme, failed_eids=scheme.failed_eids[:n], equations=equations)
