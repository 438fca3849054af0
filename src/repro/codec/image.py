"""Whole-array image codec with rotated stripe placement.

Real arrays store many stripes and rotate the logical-to-physical disk
mapping from stripe to stripe (the stack layout of Hafner et al. [15] the
paper's evaluation uses), so parity traffic — and recovery load — spreads
over all spindles.  That layout is the one-group pool
:func:`~repro.placement.FlatPlacement` with ``n_pool = n_disks``
(:attr:`ArrayImageCodec.placement`): every role-to-disk lookup of the
array goes through it.  This module provides the layout at byte
granularity:

* :meth:`ArrayImageCodec.encode_image` turns a flat user buffer into
  per-disk images (``n_disks x (n_stripes*k) x element_size`` bytes);
* :meth:`ArrayImageCodec.rotation_columns` gives the batched engines a
  stripe's logical columns as in-place views of the disk image;
* :meth:`ArrayImageCodec.recover_disk` rebuilds a *physical* disk after
  failure, stripe by stripe, picking the right logical scheme per rotation
  — the byte-level realisation of the paper's experiment loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.codec.batch import ColumnSet
from repro.codec.encoder import StripeCodec
from repro.codec.reconstructor import execute_scheme
from repro.codes.base import ErasureCode
from repro.placement.map import FlatPlacement
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
        #: the array layout: role ``l`` of stripe ``s`` on disk ``(l + s) % n``
        self.placement = FlatPlacement(lay.n_disks, self.n_stripes, lay.n_disks)
        self._roles = np.arange(lay.n_disks)  # every logical role, in order

    # ------------------------------------------------------------------
    @property
    def data_bytes_per_stripe(self) -> int:
        return self.code.layout.n_data_elements * self.element_size

    @property
    def total_data_bytes(self) -> int:
        return self.n_stripes * self.data_bytes_per_stripe

    def view_image(self, disks: np.ndarray) -> np.ndarray:
        """``disks`` as a ``(disk, stripe, row, byte)`` view, after checking
        that it is this array's ``uint8`` image (:class:`ValueError`)."""
        lay = self.code.layout
        expect = (lay.n_disks, self.n_stripes * lay.k_rows, self.element_size)
        if disks.shape != expect:
            raise ValueError(f"disks shape {disks.shape} != {expect}")
        if disks.dtype != np.uint8:
            raise ValueError(f"disks dtype {disks.dtype} != uint8")
        return disks.reshape(lay.n_disks, self.n_stripes, lay.k_rows, -1)

    def rotation_columns(self, disks: np.ndarray, stripe: int) -> ColumnSet:
        """The logical columns of ``stripe``'s rotation class.

        Column ``l`` is the whole-disk view of the disk hosting role ``l``
        in ``stripe``, so the set serves, in place and by stripe id, every
        stripe with the same rotation — the ``(n_stripes, k, element_size)``
        columns the batch kernel reads.
        """
        disks4 = self.view_image(disks)
        hosts = self.placement.disk_of_role(stripe, self._roles)
        return ColumnSet([disks4[d] for d in hosts])

    def logical_stripes(
        self, disks: np.ndarray, stripes: Iterable[int]
    ) -> np.ndarray:
        """Stripes in logical element order, ``(m, n_elements, esz)``: one
        gather of each stripe's rows over the placement."""
        ids = np.asarray(stripes, dtype=np.int64)[:, None]
        hosts = self.placement.disk_of_role(ids, self._roles)
        return self.view_image(disks)[hosts, ids].reshape(
            len(ids), -1, self.element_size
        )

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
        n, k, esz = lay.n_disks, lay.k_rows, self.element_size
        disks = np.zeros((n, self.n_stripes * k, esz), dtype=np.uint8)
        disks4 = disks.reshape(n, self.n_stripes, k, esz)
        chunks = data.reshape(self.n_stripes, lay.n_data_elements, esz)
        for s in range(self.n_stripes):
            stripe = self.codec.encode(chunks[s])
            hosts = self.placement.disk_of_role(s, self._roles)
            disks4[hosts, s] = stripe.reshape(n, k, esz)
        return disks

    def decode_image(self, disks: np.ndarray) -> np.ndarray:
        """Read the user data back out of the per-disk images."""
        s = np.arange(self.n_stripes)[:, None]
        hosts = self.placement.disk_of_role(s, self._roles[: self.code.layout.n_data])
        return self.view_image(disks)[hosts, s].reshape(-1)

    # ------------------------------------------------------------------
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
        stripes, roles = self.placement.roles_of_disk(failed_physical)
        for s, role in zip(stripes.tolist(), roles.tolist()):
            if role not in plans:
                scheme = planner.scheme_for_disk(role)
                plans[role] = (scheme, scheme.loads)
            scheme, loads = plans[role]
            # account reads against *physical* disks
            hosts = self.placement.disk_of_role(s, self._roles)
            for disk, load in zip(hosts.tolist(), loads):
                reads_per_disk[disk] += load
            recovered = execute_scheme(scheme, self.logical_stripes(disks, [s])[0])
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
