"""Whole-array image codec with rotated stripe placement.

Real arrays store many stripes and rotate the logical-to-physical disk
mapping from stripe to stripe (the stack layout of Hafner et al. [15] the
paper's evaluation uses), so parity traffic — and recovery load — spreads
over all spindles.  This module provides that layout at byte granularity:

* :meth:`ArrayImageCodec.encode_image` turns a flat user buffer into
  per-disk images (``n_disks x (n_stripes*k) x element_size`` bytes);
* :meth:`ArrayImageCodec.recover_disk` rebuilds a *physical* disk after
  failure, stripe by stripe, picking the right logical scheme per rotation
  — the byte-level realisation of the paper's experiment loop.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.codec.encoder import StripeCodec
from repro.codec.reconstructor import execute_scheme
from repro.codes.base import ErasureCode
from repro.recovery.planner import RecoveryPlanner


class ArrayImageCodec:
    """Byte-level multi-stripe array with per-stripe rotation.

    Parameters
    ----------
    code:
        The erasure code.
    element_size:
        Bytes per element.
    n_stripes:
        Stripes in the array image.  A full stack is ``n_disks`` stripes.
    """

    def __init__(
        self, code: ErasureCode, element_size: int = 512, n_stripes: int = None
    ) -> None:
        lay_default = [
            code.layout.eid(d, r)
            for d in code.layout.data_disks
            for r in range(code.layout.k_rows)
        ]
        if code.data_eids() != lay_default:
            raise NotImplementedError(
                "ArrayImageCodec supports horizontal codes only (vertical "
                "codes interleave data and parity within disks)"
            )
        self.code = code
        self.codec = StripeCodec(code, element_size)
        self.element_size = element_size
        lay = code.layout
        self.n_stripes = n_stripes if n_stripes is not None else lay.n_disks
        if self.n_stripes < 1:
            raise ValueError("n_stripes must be >= 1")

    # ------------------------------------------------------------------
    @property
    def data_bytes_per_stripe(self) -> int:
        return self.code.layout.n_data_elements * self.element_size

    @property
    def total_data_bytes(self) -> int:
        return self.n_stripes * self.data_bytes_per_stripe

    def rotation_of_stripe(self, stripe: int) -> int:
        """Rotation applied to this stripe's logical-to-physical mapping."""
        return stripe % self.code.layout.n_disks

    def physical_disk(self, logical: int, stripe: int) -> int:
        """Physical disk hosting a logical role in a given stripe."""
        n = self.code.layout.n_disks
        return (logical + self.rotation_of_stripe(stripe)) % n

    def logical_role(self, physical: int, stripe: int) -> int:
        """Logical role a physical disk plays in a given stripe."""
        n = self.code.layout.n_disks
        return (physical - self.rotation_of_stripe(stripe)) % n

    # ------------------------------------------------------------------
    def random_image(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Random user data for the whole array (flat byte buffer)."""
        rng = rng or np.random.default_rng()
        return rng.integers(0, 256, size=self.total_data_bytes, dtype=np.uint8)

    def encode_image(self, data: np.ndarray) -> np.ndarray:
        """Encode a flat user buffer into per-disk images.

        Returns an array of shape ``(n_disks, n_stripes * k, element_size)``
        where row ``s*k + r`` of disk ``d`` is element row ``r`` of stripe
        ``s`` on that physical disk.
        """
        if data.shape != (self.total_data_bytes,):
            raise ValueError(
                f"data must be a flat buffer of {self.total_data_bytes} bytes"
            )
        lay = self.code.layout
        disks = np.zeros(
            (lay.n_disks, self.n_stripes * lay.k_rows, self.element_size),
            dtype=np.uint8,
        )
        per_stripe = self.data_bytes_per_stripe
        for s in range(self.n_stripes):
            chunk = data[s * per_stripe : (s + 1) * per_stripe].reshape(
                lay.n_data_elements, self.element_size
            )
            stripe = self.codec.encode(chunk)
            for logical in range(lay.n_disks):
                phys = self.physical_disk(logical, s)
                for row in range(lay.k_rows):
                    disks[phys, s * lay.k_rows + row] = stripe[lay.eid(logical, row)]
        return disks

    def decode_image(self, disks: np.ndarray) -> np.ndarray:
        """Read the user data back out of the per-disk images."""
        lay = self.code.layout
        out = np.empty(self.total_data_bytes, dtype=np.uint8)
        per_stripe = self.data_bytes_per_stripe
        for s in range(self.n_stripes):
            view = out[s * per_stripe : (s + 1) * per_stripe].reshape(
                lay.n_data_elements, self.element_size
            )
            for logical in range(lay.n_data):
                phys = self.physical_disk(logical, s)
                for row in range(lay.k_rows):
                    view[lay.eid(logical, row)] = disks[phys, s * lay.k_rows + row]
        return out

    # ------------------------------------------------------------------
    def _logical_stripe(self, disks: np.ndarray, s: int) -> np.ndarray:
        """Assemble stripe ``s`` in logical element order.

        One slice per logical disk: stripe ``s`` occupies rows
        ``s*k .. s*k + k - 1`` of every physical disk, and logical disk
        ``l`` lives on physical disk ``(l + rotation) % n_disks``.
        """
        lay = self.code.layout
        n, k = lay.n_disks, lay.k_rows
        rot = self.rotation_of_stripe(s)
        stripe = np.empty((lay.n_elements, self.element_size), dtype=np.uint8)
        for logical in range(n):
            stripe[logical * k : (logical + 1) * k] = disks[
                (logical + rot) % n, s * k : (s + 1) * k
            ]
        return stripe

    def recover_disk(
        self,
        disks: np.ndarray,
        failed_physical: int,
        planner: Optional[RecoveryPlanner] = None,
    ) -> Dict[str, object]:
        """Rebuild a failed physical disk from the survivors, stripe by stripe.

        The per-stripe oracle the batched engines are checked against: each
        stripe is gathered in logical order and run through the scalar
        :func:`~repro.codec.reconstructor.execute_scheme`.
        ``disks[failed_physical]`` is never read; the rebuilt image is
        returned together with per-physical-disk element read counts, billed
        from each scheme's ``loads``, so the load balance of the chosen
        scheme family is observable end to end.
        """
        lay = self.code.layout
        n, k = lay.n_disks, lay.k_rows
        if not 0 <= failed_physical < n:
            raise IndexError(f"physical disk {failed_physical} out of range")
        planner = planner or RecoveryPlanner(self.code, algorithm="u", depth=1)

        rebuilt = np.zeros((self.n_stripes * k, self.element_size), dtype=np.uint8)
        reads_per_disk = [0] * n
        plans = {}  # logical failed role -> (scheme, its per-disk loads)
        for s in range(self.n_stripes):
            rot = self.rotation_of_stripe(s)
            role = (failed_physical - rot) % n
            if role not in plans:
                scheme = planner.scheme_for_disk(role)
                plans[role] = (scheme, scheme.loads)
            scheme, loads = plans[role]
            # account reads against *physical* disks
            for logical, load in enumerate(loads):
                reads_per_disk[(logical + rot) % n] += load
            recovered = execute_scheme(scheme, self._logical_stripe(disks, s))
            for eid, payload in recovered.items():
                rebuilt[s * k + eid % k] = payload
        return {"image": rebuilt, "reads_per_disk": reads_per_disk}

    def verify_recovery(
        self,
        disks: np.ndarray,
        failed_physical: int,
        planner: Optional[RecoveryPlanner] = None,
    ) -> bool:
        """True iff the rebuilt disk matches the original image bytes."""
        result = self.recover_disk(disks, failed_physical, planner)
        return np.array_equal(result["image"], disks[failed_physical])
