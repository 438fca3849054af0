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
sweep (and one interpreter dispatch) per equation source.  The batch may
arrive as per-column views of a disk image, and given stripe ids the same
call gathers its stripes straight out of a whole store, so no caller ever
stages a copy.  A caller that runs many calls over the same views (a
serving shard over its disk image) prepares them once as a
:class:`ColumnSet`, so each call marshals only its output and stripe ids.
The fallback numpy path folds the same views and the
kernel computes the exact same XORs, so outputs are byte-identical with
or without a C compiler (``REPRO_PURE_PYTHON=1`` forces the numpy path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.recovery import ckernel
from repro.recovery.scheme import RecoveryScheme


class ColumnSet:
    """A batch's column views, validated and marshalled once.

    ``stripes`` is what :meth:`BatchReconstructor.recover_batch_into`
    accepts: one ``(n_stripes, n_elements, element_size)`` array, or a
    sequence of equal-shape ``(n_stripes, k, element_size)`` column views
    whose concatenation along axis 1 is that batch.  Views of differing
    shape raise :class:`ValueError`.  The set keeps the views alive and
    holds the kernel's base-pointer array (``bases``), or ``None`` when
    the kernel cannot address them — not uint8, rows not packed, or
    columns with differing stripe strides — in which case every call over
    the set runs the numpy fold instead, with identical bytes.

    Reuse one set for any number of calls, outputs and stripe ids; a plain
    sequence handed to ``recover_batch_into`` is wrapped in a fresh one.
    """

    __slots__ = ("cols", "shape", "stride", "width", "bases")

    def __init__(self, stripes: Union[np.ndarray, Sequence[np.ndarray]]) -> None:
        cols = [stripes] if isinstance(stripes, np.ndarray) else list(stripes)
        if len({c.shape for c in cols}) > 1:
            raise ValueError(
                f"column views differ in shape: {[c.shape for c in cols]}"
            )
        if not cols or cols[0].ndim != 3:
            raise ValueError(
                f"expected (n_stripes, n_elements, element_size) or column "
                f"views, got {[c.shape for c in cols]}"
            )
        self.cols: List[np.ndarray] = cols
        #: ``(n_stripes, k, element_size)`` of every column
        self.shape = cols[0].shape
        self.stride = cols[0].strides[0]
        #: elements per stripe across all columns
        self.width = len(cols) * self.shape[1]
        self.bases = ckernel.marshal_columns(cols)


class BatchReconstructor:
    """Executes one recovery scheme over stacks of stripes at once.

    The equation plan is compiled once (per failed element: index arrays of
    surviving sources plus references to earlier recovered outputs) and then
    applied to ``(n_stripes, n_elements, element_size)`` arrays; a single
    stripe is a batch of 1.  A plan that cannot run in list order is
    refused here with :class:`ValueError`
    (:meth:`~repro.recovery.scheme.RecoveryScheme.check_order`).
    """

    def __init__(self, scheme: RecoveryScheme) -> None:
        scheme.check_order()
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
        # marshalled once; the arrays above keep the addresses valid
        self._src_off_p = self._src_off.ctypes.data
        self._src_ids_p = self._src_ids.ctypes.data

    @property
    def source_eids(self) -> np.ndarray:
        """Distinct surviving elements the compiled plan reads, ascending."""
        return np.unique(self._src_ids[self._src_ids >= 0]).astype(np.int64)

    def recover_batch_into(
        self,
        stripes: Union[ColumnSet, np.ndarray, Sequence[np.ndarray]],
        out: np.ndarray,
        stripe_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Zero-allocation variant: XOR straight into a caller buffer.

        ``stripes`` is the ``(n_stripes, n_elements, element_size)`` batch,
        or the same batch as a sequence of column views, each
        ``(n_stripes, k, element_size)``, whose concatenation along axis 1
        is that batch — one view per logical disk of a disk image, for
        instance, so a rotated stripe is read where it lies — or either
        of those prepared once as a :class:`ColumnSet`.  ``out`` must
        have shape ``(n_stripes, n_failed, element_size)``; slot ``i``
        along axis 1 receives the element ``failed_eids[i]``.  Inputs and
        ``out`` may be strided views (rebuilt rows land straight in the
        image they belong to) and the output slices themselves are the
        accumulators, so nothing is allocated or copied.  Returns ``out``.

        With ``stripe_ids`` (a 1-D integer array, any order, repeats
        allowed) ``stripes`` holds a whole store and output row ``j`` is
        rebuilt from stripe ``stripe_ids[j]``: the kernel reads the store
        in place, so a caller holding a store never copies a batch out of
        it.  An id outside ``[0, n_stripes)`` raises :class:`IndexError`.
        """
        cols = self._column_set(stripes)
        n_rows = cols.shape[0]
        if stripe_ids is not None:
            stripe_ids = np.asarray(stripe_ids)
            if stripe_ids.ndim != 1 or stripe_ids.dtype.kind not in "iu":
                raise IndexError(
                    f"stripe_ids must be a 1-D integer array, got "
                    f"{stripe_ids.dtype} of shape {stripe_ids.shape}"
                )
            stripe_ids = np.ascontiguousarray(stripe_ids, dtype=np.int64)
            n_rows = len(stripe_ids)
        want = (n_rows, len(self._plan), cols.shape[2])
        if out.shape != want:
            raise ValueError(f"out shape {out.shape} != {want}")
        if cols.bases is not None and ckernel.xor_columns(
            cols.bases, cols.shape, cols.stride, out,
            self._src_off_p, self._src_ids_p, stripe_ids,
        ):
            return out
        return self._recover_into_numpy(cols, out, stripe_ids)

    def _column_set(
        self, stripes: Union[ColumnSet, np.ndarray, Sequence[np.ndarray]]
    ) -> ColumnSet:
        """``stripes`` as a :class:`ColumnSet` as wide as the layout."""
        cols = stripes if isinstance(stripes, ColumnSet) else ColumnSet(stripes)
        if cols.width != self.scheme.layout.n_elements:
            raise ValueError(
                f"stripe width {cols.width} != layout "
                f"{self.scheme.layout.n_elements}"
            )
        return cols

    def _recover_into_numpy(
        self,
        stripes: Union[ColumnSet, np.ndarray, Sequence[np.ndarray]],
        out: np.ndarray,
        stripe_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pure-numpy fold; reference semantics for the C kernel.

        Takes the same inputs as :meth:`recover_batch_into` and folds the
        same views: each source is one row of one column, gathered by
        ``stripe_ids`` when given.
        """
        cols = self._column_set(stripes)
        k = cols.shape[1]
        if stripe_ids is not None:
            ckernel.check_stripe_ids(stripe_ids, cols.shape[0])

        def source(eid: int) -> np.ndarray:
            rows = cols.cols[eid // k][:, eid % k, :]
            return rows if stripe_ids is None else rows[stripe_ids]

        for i, (f, surviving, recovered_refs) in enumerate(self._plan):
            acc = out[:, i, :]
            if surviving:
                np.copyto(acc, source(surviving[0]))
                for eid in surviving[1:]:
                    np.bitwise_xor(acc, source(eid), out=acc)
            else:
                acc[...] = 0
            for eid in recovered_refs:
                np.bitwise_xor(acc, out[:, self._slot_of[eid], :], out=acc)
        return out


def check_plan(recon: BatchReconstructor, role: int) -> None:
    """Refuse a plan that reads the dead role or misstates its loads.

    Both rebuild engines read survivors in place — the pool rebuild out
    of the store, the array rebuild out of the disk image — where the dead
    role's rows are still addressable (and, in a test image, intact), so a
    plan that read one could pass byte verification silently.  Checked
    statically instead, once per compiled plan: no surviving source may
    lie in the dead rows, and the distinct sources per logical disk must
    equal ``scheme.loads`` (the quantity billed).  Raises
    :class:`ValueError`.
    """
    scheme = recon.scheme
    k = scheme.layout.k_rows
    src = recon.source_eids
    dead = src[(src >= role * k) & (src < (role + 1) * k)]
    if dead.size:
        raise ValueError(
            f"scheme for role {role} reads element {int(dead[0])} of the "
            f"dead role (rows {role * k}..{(role + 1) * k - 1})"
        )
    per_disk = np.bincount(src // k, minlength=scheme.layout.n_disks)
    loads = np.asarray(scheme.loads, dtype=np.int64)
    if not np.array_equal(per_disk, loads):
        d = int(np.flatnonzero(per_disk != loads)[0])
        raise ValueError(
            f"scheme for role {role} reads {int(per_disk[d])} elements of "
            f"logical disk {d} (first element {d * k}), but its loads "
            f"say {int(loads[d])}"
        )
