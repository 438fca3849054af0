"""Byte-level stripe store with fault injection on the read path.

:class:`FaultyStripeStore` is what the resilient executor reads from: it
holds encoded stripes, applies a :class:`~repro.faults.plan.FaultPlan` to
every element read, and keeps per-disk access counters so reports and
benchmarks can account for retries and substitutions.

Per-element CRC32 checksums are computed from the pristine stripes at
construction and served through :meth:`FaultyStripeStore.checksum` — the
model is a system whose checksum metadata lives out-of-band (or inline but
self-validating), so corruption of element *payloads* is always detectable
by whoever bothers to check.  Reads themselves never checksum: silent
corruption stays silent until the caller verifies, exactly like a real
storage stack without end-to-end integrity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.codec.verify import element_checksum
from repro.codes.layout import CodeLayout
from repro.faults.plan import FaultPlan

#: XOR pattern applied by silent corruption — any non-zero pattern breaks
#: the CRC, this one flips bits in every nibble.
CORRUPTION_XOR = 0xA5


class ReadError(IOError):
    """A detectable element-read failure (medium error)."""

    def __init__(self, stripe: int, disk: int, row: int, reason: str) -> None:
        super().__init__(
            f"read error on disk {disk} row {row} stripe {stripe}: {reason}"
        )
        self.stripe = stripe
        self.disk = disk
        self.row = row


class DiskDeadError(ReadError):
    """The whole disk is gone — no element on it will ever read again."""

    def __init__(self, stripe: int, disk: int, row: int) -> None:
        super().__init__(stripe, disk, row, "disk failed")


class FaultyStripeStore:
    """Stripes + fault plan + access accounting.

    Parameters
    ----------
    layout:
        Element geometry (maps eids to (disk, row)).
    stripes:
        Encoded stripes, each ``(n_elements, element_size)`` ``uint8``.
        The store keeps references, never mutates them, and serves copies.
    plan:
        Faults to inject; ``None`` or an empty plan reads cleanly.
    """

    def __init__(
        self,
        layout: CodeLayout,
        stripes: Sequence[np.ndarray],
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.layout = layout
        self.stripes: List[np.ndarray] = list(stripes)
        for s in self.stripes:
            if s.shape[0] != layout.n_elements:
                raise ValueError(
                    f"stripe has {s.shape[0]} elements, layout needs "
                    f"{layout.n_elements}"
                )
        self.plan = plan or FaultPlan()
        self._checksums: List[List[int]] = [
            [element_checksum(s[eid]) for eid in range(layout.n_elements)]
            for s in self.stripes
        ]
        self.reads_per_disk: Dict[int, int] = {}
        self.total_read_attempts = 0

    # ------------------------------------------------------------------
    @property
    def n_stripes(self) -> int:
        return len(self.stripes)

    def checksum(self, stripe: int, eid: int) -> int:
        """The pristine CRC32 of one element (out-of-band metadata)."""
        return self._checksums[stripe][eid]

    def read(self, stripe: int, eid: int) -> np.ndarray:
        """Read one element, faults applied; counts every attempt.

        Raises :class:`DiskDeadError` if the element's disk is dead by
        ``stripe``, :class:`ReadError` on a latent sector error, and
        returns silently corrupted bytes for a corruption fault — the
        caller must compare against :meth:`checksum` to notice.
        """
        return self.read_into(stripe, eid, np.empty_like(self.stripes[stripe][eid]))

    def read_into(self, stripe: int, eid: int, out: np.ndarray) -> np.ndarray:
        """:meth:`read`, landing the bytes in ``out`` (one element's worth
        of uint8, such as a row of the reader's stripe buffer) instead of
        a fresh array; returns ``out``, which a raising read leaves as it
        was."""
        disk = self.layout.disk_of(eid)
        row = self.layout.row_of(eid)
        self.reads_per_disk[disk] = self.reads_per_disk.get(disk, 0) + 1
        self.total_read_attempts += 1
        if self.plan.dead_at(disk, stripe):
            raise DiskDeadError(stripe, disk, row)
        if self.plan.lse_at(stripe, disk, row):
            raise ReadError(stripe, disk, row, "unrecoverable medium error")
        out[...] = self.stripes[stripe][eid]
        if self.plan.corrupt_at(stripe, disk, row):
            np.bitwise_xor(out, CORRUPTION_XOR, out=out)
        return out
