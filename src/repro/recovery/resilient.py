"""Fault-tolerant scheme execution: retry, substitute, escalate.

The plain :mod:`~repro.codec.reconstructor` assumes every surviving read
succeeds.  :class:`ResilientExecutor` executes a recovery scheme
stripe-by-stripe against a :class:`~repro.faults.store.FaultyStripeStore`
and climbs a three-rung ladder when reads go wrong:

1. **retry** — a failed or checksum-mismatching element read is retried up
   to ``max_retries`` times (transient errors, none in the injected model,
   but the rung exists and is counted);
2. **substitute** — a persistently bad element disqualifies the current
   calculation equation for its slot only; the executor picks the cheapest
   alternative recovery equation from
   :func:`~repro.equations.enumerate.get_recovery_equations` whose read set
   avoids every known-bad element (and whose failed members are already
   rebuilt) — the other slots keep their planned equations;
3. **escalate** — a whole surviving disk dying mid-rebuild voids the plan;
   the executor re-plans via
   :func:`~repro.recovery.escalation.escalated_scheme`, crediting the rows
   of the primary disk already rebuilt in the current stripe, and continues
   with a full double-failure scheme for the remaining stripes.

Silent corruption is caught by comparing each read against the store's
per-element CRC32 (:func:`repro.codec.verify.element_checksum`) — the read
path *always* verifies, which is what makes rung 2 reachable for
corruptions at all.  Every action is recorded in a
:class:`~repro.faults.report.FaultReport`.

With no faults injected the executor performs exactly the planned reads in
the planned order and its output is byte-identical to
:func:`~repro.codec.reconstructor.execute_scheme`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.codec.verify import element_checksum
from repro.codes.base import ErasureCode
from repro.equations.enumerate import get_recovery_equations
from repro.faults.report import FaultReport
from repro.faults.store import DiskDeadError, FaultyStripeStore, ReadError
from repro.recovery.escalation import escalated_scheme
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

        lay = code.layout
        # escalation needs to know which single disk the plan rebuilds
        disks = {lay.disk_of(f) for f in scheme.failed_eids}
        self.primary_disk: Optional[int] = None
        if len(disks) == 1:
            d = disks.pop()
            if scheme.failed_mask == lay.disk_mask(d):
                self.primary_disk = d
        self.secondary_disk: Optional[int] = None
        self._continuation: Optional[RecoveryScheme] = None
        self._stripe_read_mask = 0
        self._read_cache: Dict[int, np.ndarray] = {}
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
        if self.secondary_disk is None:
            return self.scheme
        if self._continuation is None:
            self._continuation = escalated_scheme(
                self.code,
                self.primary_disk,
                [],
                self.secondary_disk,
                algorithm=self.algorithm,
                depth=self.depth,
                max_expansions=self.max_expansions,
            )
        return self._continuation

    def _recover_stripe(self, s: int) -> Dict[int, np.ndarray]:
        scheme = self._active_scheme()
        self._stripe_read_mask = 0
        # each surviving element is read from the media once per stripe and
        # reused from memory — the paper's read-cost model, and what makes
        # elements_read comparable to scheme.total_reads; proven-bad
        # elements are remembered so no later equation retries them
        self._read_cache: Dict[int, np.ndarray] = {}
        self._bad_eids: Dict[int, str] = {}
        out: Dict[int, np.ndarray] = {}
        try:
            self._execute(s, scheme, out, preset={})
            planned = scheme.total_reads
        except DiskDeadError as exc:
            out, planned = self._escalate(s, exc.disk, out)
        self.report.planned_reads += planned
        self.report.per_stripe_read_masks.append(self._stripe_read_mask)
        return out

    def _escalate(
        self, s: int, dead_disk: int, partial: Dict[int, np.ndarray]
    ):
        """A surviving disk died mid-stripe: re-plan and re-execute."""
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
        lay = self.code.layout
        recovered_rows = sorted(
            lay.row_of(f)
            for f in partial
            if lay.disk_of(f) == self.primary_disk
        )
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
            {
                "stripe": s,
                "secondary_disk": dead_disk,
                "recovered_rows": recovered_rows,
            }
        )
        # re-execute this stripe under the escalated plan; the partial
        # rebuild feeds the sentinel slots instead of being re-read
        out: Dict[int, np.ndarray] = {}
        self._execute(s, esc, out, preset=partial)
        return out, esc.total_reads

    # ------------------------------------------------------------------
    def _execute(
        self,
        s: int,
        scheme: RecoveryScheme,
        out: Dict[int, np.ndarray],
        preset: Dict[int, np.ndarray],
    ) -> None:
        """Run one scheme over stripe ``s``, mutating ``out`` slot by slot
        (partial progress survives a mid-stripe :class:`DiskDeadError`)."""
        failed_mask = scheme.failed_mask
        bad_mask = 0  # surviving elements proven unreadable on this stripe
        for f, eq in zip(scheme.failed_eids, scheme.equations):
            if eq == 1 << f:  # sentinel: already rebuilt before escalation
                if f not in preset:
                    raise KeyError(
                        f"element {f} marked in-memory but not supplied"
                    )
                out[f] = preset[f]
                continue
            while True:
                try:
                    out[f] = self._xor_equation(s, f, eq, failed_mask, out)
                    break
                except ElementUnreadable as bad:
                    bad_mask |= 1 << bad.eid
                    eq = self._substitute(
                        s, f, eq, failed_mask, bad_mask, out, bad.reason
                    )

    def _xor_equation(
        self,
        s: int,
        f: int,
        eq: int,
        failed_mask: int,
        out: Dict[int, np.ndarray],
    ) -> np.ndarray:
        element_size = self.store.stripes[s].shape[1]
        acc = np.zeros(element_size, dtype=np.uint8)
        members = eq & ~(1 << f)
        while members:
            low = members & -members
            eid = low.bit_length() - 1
            members ^= low
            if (failed_mask >> eid) & 1:
                if eid not in out:
                    raise UnrecoverableError(
                        f"equation for element {f} needs failed element "
                        f"{eid} which is not yet recovered"
                    )
                source = out[eid]
            else:
                source = self._read_verified(s, eid)
            np.bitwise_xor(acc, source, out=acc)
        return acc

    def _read_verified(self, s: int, eid: int) -> np.ndarray:
        """Read one surviving element with checksum verification and
        bounded retries; raises :class:`ElementUnreadable` when it stays
        bad and lets :class:`DiskDeadError` propagate (escalation)."""
        cached = self._read_cache.get(eid)
        if cached is not None:
            return cached
        if eid in self._bad_eids:
            raise ElementUnreadable(eid, self._bad_eids[eid])
        disk = self.store.layout.disk_of(eid)
        attempt = 0
        while True:
            try:
                data = self.store.read(s, eid)
            except DiskDeadError:
                # the disk is gone: the attempt costs a controller timeout,
                # not spindle time, so it stays out of the read mask
                raise
            except ReadError:
                self._stripe_read_mask |= 1 << eid
                if attempt < self.max_retries:
                    attempt += 1
                    self.report.record_retry(disk)
                    obs.count("executor.retries")
                    continue
                self.report.latent_errors += 1
                obs.count("executor.latent_errors")
                self._bad_eids[eid] = "latent sector error"
                raise ElementUnreadable(eid, "latent sector error") from None
            self._stripe_read_mask |= 1 << eid
            if element_checksum(data) == self.store.checksum(s, eid):
                self._read_cache[eid] = data
                return data
            if attempt < self.max_retries:
                attempt += 1
                self.report.record_retry(disk)
                obs.count("executor.retries")
                continue
            self.report.corruptions_detected += 1
            obs.count("executor.corruptions")
            self._bad_eids[eid] = "checksum mismatch"
            raise ElementUnreadable(eid, "checksum mismatch")

    def _substitute(
        self,
        s: int,
        f: int,
        failed_eq: int,
        failed_mask: int,
        bad_mask: int,
        out: Dict[int, np.ndarray],
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
        failure is still within the code's tolerance.
        """
        available = 0
        for eid in out:
            available |= 1 << eid
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
                if deps & ~available:
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
