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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.verify import element_checksum
from repro.codes.layout import CodeLayout
from repro.faults.plan import FaultPlan, LatentSectorError

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
        # the plan is immutable, so each read finds its element's latent
        # sector errors and corruptions here instead of scanning the plan
        self._n_elements = layout.n_elements
        self._element_faults: Dict[Tuple[int, int], List] = {}
        for f in self.plan.element_faults():
            self._element_faults.setdefault((f.disk, f.row), []).append(f)
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
        was.  A dead disk outranks a latent sector error, which outranks a
        corruption of the same element."""
        if not 0 <= eid < self._n_elements:
            raise IndexError(f"eid {eid} out of range [0, {self._n_elements})")
        disk, row = divmod(eid, self.layout.k_rows)
        self.reads_per_disk[disk] = self.reads_per_disk.get(disk, 0) + 1
        self.total_read_attempts += 1
        if self.plan.dead_at(disk, stripe):
            raise DiskDeadError(stripe, disk, row)
        corrupt = False
        for f in self._element_faults.get((disk, row), ()):
            if f.stripe is None or f.stripe == stripe:
                if isinstance(f, LatentSectorError):
                    raise ReadError(
                        stripe, disk, row, "unrecoverable medium error"
                    )
                corrupt = True
        out[...] = self.stripes[stripe][eid]
        if corrupt:
            np.bitwise_xor(out, CORRUPTION_XOR, out=out)
        return out
