"""Vectorized multi-stripe recovery.

Recovering a whole disk means executing the same scheme on thousands of
stripes.  Per-stripe Python dispatch wastes the interpreter; this module
stacks the stripes into one 3-D array and XORs each equation's sources
across *all* stripes at once.  Sources are folded into a preallocated
accumulator with ``np.bitwise_xor(..., out=...)`` — each source slice is a
view, so no ``(n_stripes, n_sources, element_size)`` temporary is ever
materialized.

When the compiled kernel from :mod:`repro.recovery.ckernel` is available,
:meth:`BatchReconstructor.recover_batch_into` hands the whole batch to
``xor_batch`` instead: one C call fuses every equation of every stripe in
a single cache-friendly pass, where the numpy fold pays one full memory
sweep (and one interpreter dispatch) per equation source.  Given stripe
ids, the same call gathers its stripes straight out of a whole store.  The
fallback numpy path is kept verbatim and the kernel computes the exact same XORs,
so outputs are byte-identical with or without a C compiler
(``REPRO_PURE_PYTHON=1`` forces the numpy path).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.recovery import ckernel
from repro.recovery.scheme import RecoveryScheme


class BatchReconstructor:
    """Executes one recovery scheme over stacks of stripes at once.

    The equation plan is compiled once (per failed element: index arrays of
    surviving sources plus references to earlier recovered outputs) and then
    applied to ``(n_stripes, n_elements, element_size)`` arrays.
    """

    def __init__(self, scheme: RecoveryScheme) -> None:
        self.scheme = scheme
        failed_mask = scheme.failed_mask
        #: per slot: (surviving source eids, earlier-recovered source eids)
        self._plan: List = []
        #: failed eid -> its slot index (recovery order) for in-place output
        self._slot_of: Dict[int, int] = {
            f: i for i, f in enumerate(scheme.failed_eids)
        }
        for f, eq in zip(scheme.failed_eids, scheme.equations):
            members = eq & ~(1 << f)
            surviving: List[int] = []
            recovered_refs: List[int] = []
            m = members
            while m:
                low = m & -m
                eid = low.bit_length() - 1
                m ^= low
                if (failed_mask >> eid) & 1:
                    recovered_refs.append(eid)
                else:
                    surviving.append(eid)
            self._plan.append((f, surviving, recovered_refs))
        # flattened source plan for the C kernel: ids >= 0 are stripe
        # elements, ids < 0 are earlier output slots encoded -(slot + 1)
        ids: List[int] = []
        offs: List[int] = [0]
        for _f, surviving, recovered_refs in self._plan:
            ids.extend(surviving)
            ids.extend(-(self._slot_of[e] + 1) for e in recovered_refs)
            offs.append(len(ids))
        self._src_off = np.ascontiguousarray(offs, dtype=np.int64)
        self._src_ids = np.ascontiguousarray(ids, dtype=np.int32)

    @property
    def source_eids(self) -> np.ndarray:
        """Distinct surviving elements the compiled plan reads, ascending."""
        return np.unique(self._src_ids[self._src_ids >= 0]).astype(np.int64)

    def recover_batch(self, stripes: np.ndarray) -> Dict[int, np.ndarray]:
        """Rebuild the failed elements of every stripe in the batch.

        Parameters
        ----------
        stripes:
            Array of shape ``(n_stripes, n_elements, element_size)``; the
            failed elements' stored rows are never read.

        Returns
        -------
        dict mapping failed eid -> ``(n_stripes, element_size)`` array.
        """
        if stripes.ndim != 3:
            raise ValueError(
                f"expected (n_stripes, n_elements, element_size), got {stripes.shape}"
            )
        if stripes.shape[1] != self.scheme.layout.n_elements:
            raise ValueError(
                f"stripe width {stripes.shape[1]} != layout "
                f"{self.scheme.layout.n_elements}"
            )
        out: Dict[int, np.ndarray] = {}
        acc_shape = (stripes.shape[0], stripes.shape[2])
        for f, surviving, recovered_refs in self._plan:
            # fold sources into the slot's accumulator in place; each
            # stripes[:, eid, :] is a view, so the only allocation per
            # failed element is its output buffer
            if surviving:
                acc = stripes[:, surviving[0], :].copy()
                for eid in surviving[1:]:
                    np.bitwise_xor(acc, stripes[:, eid, :], out=acc)
            else:
                acc = np.zeros(acc_shape, dtype=stripes.dtype)
            for eid in recovered_refs:
                np.bitwise_xor(acc, out[eid], out=acc)
            out[f] = acc
        return out

    def recover_batch_into(
        self,
        stripes: np.ndarray,
        out: np.ndarray,
        stripe_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Zero-allocation variant: XOR straight into a caller buffer.

        ``out`` must have shape ``(n_stripes, n_failed, element_size)``;
        slot ``i`` along axis 1 receives the element ``failed_eids[i]``.
        The output slices themselves are the accumulators — nothing is
        allocated, which is what lets pipeline workers XOR views of a
        shared-memory arena in place.  Returns ``out``.

        With ``stripe_ids`` (a 1-D integer array, any order, repeats
        allowed) ``stripes`` is a whole store and output row ``j`` is
        rebuilt from stripe ``stripe_ids[j]``: the kernel reads the store
        in place, so a caller holding a store never copies a batch out of
        it.  An id outside ``[0, len(stripes))`` raises
        :class:`IndexError`.
        """
        if stripes.ndim != 3:
            raise ValueError(
                f"expected (n_stripes, n_elements, element_size), got {stripes.shape}"
            )
        if stripes.shape[1] != self.scheme.layout.n_elements:
            raise ValueError(
                f"stripe width {stripes.shape[1]} != layout "
                f"{self.scheme.layout.n_elements}"
            )
        n_rows = stripes.shape[0]
        if stripe_ids is not None:
            stripe_ids = np.asarray(stripe_ids)
            if stripe_ids.ndim != 1 or stripe_ids.dtype.kind not in "iu":
                raise IndexError(
                    f"stripe_ids must be a 1-D integer array, got "
                    f"{stripe_ids.dtype} of shape {stripe_ids.shape}"
                )
            ckernel.check_stripe_ids(stripe_ids, n_rows)
            stripe_ids = np.ascontiguousarray(stripe_ids, dtype=np.int64)
            n_rows = len(stripe_ids)
        want = (n_rows, len(self._plan), stripes.shape[2])
        if out.shape != want:
            raise ValueError(f"out shape {out.shape} != {want}")
        if ckernel.xor_batch(stripes, out, self._src_off, self._src_ids, stripe_ids):
            return out
        if stripe_ids is not None:
            stripes = stripes[stripe_ids]
        return self._recover_into_numpy(stripes, out)

    def _recover_into_numpy(self, stripes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Pure-numpy fold; reference semantics for the C kernel."""
        for i, (f, surviving, recovered_refs) in enumerate(self._plan):
            acc = out[:, i, :]
            if surviving:
                np.copyto(acc, stripes[:, surviving[0], :])
                for eid in surviving[1:]:
                    np.bitwise_xor(acc, stripes[:, eid, :], out=acc)
            else:
                acc[...] = 0
            for eid in recovered_refs:
                np.bitwise_xor(acc, out[:, self._slot_of[eid], :], out=acc)
        return out

    def verify_batch(self, stripes: np.ndarray) -> bool:
        """Recover every stripe from survivors and compare with the stored
        bytes of the failed elements."""
        recovered = self.recover_batch(stripes)
        return all(
            np.array_equal(stripes[:, eid, :], data)
            for eid, data in recovered.items()
        )
