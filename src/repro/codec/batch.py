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

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
        # per slot, the stored element a rebuilt slot is verified against
        self._check_eids = np.ascontiguousarray(scheme.failed_eids, dtype=np.int32)
        # marshalled once; the arrays above keep the addresses valid
        self._src_off_p = self._src_off.ctypes.data
        self._src_ids_p = self._src_ids.ctypes.data
        self._check_eids_p = self._check_eids.ctypes.data

    @property
    def source_eids(self) -> np.ndarray:
        """Distinct surviving elements the compiled plan reads, ascending."""
        return np.unique(self._src_ids[self._src_ids >= 0]).astype(np.int64)

    def recover_batch_into(
        self,
        stripes: Union[ColumnSet, np.ndarray, Sequence[np.ndarray]],
        out: np.ndarray,
        stripe_ids: Optional[np.ndarray] = None,
        *,
        out_rows: Optional[np.ndarray] = None,
        bad_rows: Optional[np.ndarray] = None,
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
        allowed) ``stripes`` holds a whole store and batch row ``j`` is
        rebuilt from stripe ``stripe_ids[j]``: the kernel reads the store
        in place, so a caller holding a store never copies a batch out of
        it.  An id outside ``[0, n_stripes)`` raises :class:`IndexError`.

        With ``out_rows`` (a 1-D integer array, one entry per batch row)
        batch row ``j`` is written to ``out[out_rows[j]]``, so ``out`` may
        be a whole result of any number of rows and the rows not named
        keep their bytes; which batch row a repeated entry ends up
        holding is unspecified.  An entry outside ``[0, len(out))``
        raises :class:`IndexError` and a length other than the batch's
        raises :class:`ValueError`, both before anything is written.

        With ``bad_rows`` (a writable 1-D bool array, one entry per batch
        row) each rebuilt slot is also compared with the element it
        rebuilds, ``failed_eids[i]``, of the same input stripe, and
        ``bad_rows[j]`` is set to whether any slot of batch row ``j``
        differs.  The stored elements are comparison targets only, never
        sources.  The kernel compares each row in the pass that writes
        it, while it is still in cache.
        """
        cols = self._column_set(stripes)
        n_rows = cols.shape[0]
        if stripe_ids is not None:
            stripe_ids = self._ids(stripe_ids, "stripe_ids")
            n_rows = len(stripe_ids)
        want = (n_rows, len(self._plan), cols.shape[2])
        if out_rows is None:
            if out.shape != want:
                raise ValueError(f"out shape {out.shape} != {want}")
        else:
            out_rows = self._ids(out_rows, "out_rows")
            if out.ndim != 3 or out.shape[1:] != want[1:]:
                raise ValueError(
                    f"out shape {out.shape} != (*, {want[1]}, {want[2]})"
                )
            if len(out_rows) != n_rows:
                raise ValueError(f"out_rows shape {out_rows.shape} != ({n_rows},)")
        if bad_rows is not None and not (
            isinstance(bad_rows, np.ndarray) and bad_rows.dtype == bool
            and bad_rows.shape == (n_rows,) and bad_rows.flags.writeable
        ):
            raise ValueError(
                f"bad_rows must be a writable bool array of shape ({n_rows},)"
            )
        if cols.bases is not None and ckernel.xor_columns(
            cols.bases, cols.shape, cols.stride, out,
            self._src_off_p, self._src_ids_p, stripe_ids,
            out_rows, self._check_eids_p, bad_rows,
        ):
            return out
        return self._recover_into_numpy(cols, out, stripe_ids, out_rows, bad_rows)

    @staticmethod
    def _ids(ids: np.ndarray, name: str) -> np.ndarray:
        """``ids`` as C-contiguous int64; :class:`IndexError` unless 1-D ints."""
        ids = np.asarray(ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise IndexError(
                f"{name} must be a 1-D integer array, got "
                f"{ids.dtype} of shape {ids.shape}"
            )
        return np.ascontiguousarray(ids, dtype=np.int64)

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
        out_rows: Optional[np.ndarray] = None,
        bad_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pure-numpy fold; reference semantics for the C kernel.

        Takes the same inputs as :meth:`recover_batch_into` and folds the
        same views: each source is one row of one column, gathered by
        ``stripe_ids`` when given.  With ``out_rows`` the fold runs in a
        scratch block that is then scattered into ``out``; with
        ``bad_rows`` each slot is compared with its stored element.
        """
        cols = self._column_set(stripes)
        k = cols.shape[1]
        if stripe_ids is not None:
            ckernel.check_stripe_ids(stripe_ids, cols.shape[0])
        if out_rows is not None:
            ckernel.check_stripe_ids(out_rows, len(out), "output row")
            acc_rows = np.empty((len(out_rows),) + out.shape[1:], np.uint8)
        else:
            acc_rows = out

        def source(eid: int) -> np.ndarray:
            rows = cols.cols[eid // k][:, eid % k, :]
            return rows if stripe_ids is None else rows[stripe_ids]

        for i, (f, surviving, recovered_refs) in enumerate(self._plan):
            acc = acc_rows[:, i, :]
            if surviving:
                np.copyto(acc, source(surviving[0]))
                for eid in surviving[1:]:
                    np.bitwise_xor(acc, source(eid), out=acc)
            else:
                acc[...] = 0
            for eid in recovered_refs:
                np.bitwise_xor(acc, acc_rows[:, self._slot_of[eid], :], out=acc)
        if bad_rows is not None:
            bad_rows[...] = False
            for i, (f, _, _) in enumerate(self._plan):
                bad_rows |= (acc_rows[:, i, :] != source(f)).any(axis=1)
        if out_rows is not None:
            out[out_rows] = acc_rows
        return out


def check_plan(recon: BatchReconstructor, role: int) -> None:
    """Refuse a plan that reads the dead role or misstates its loads.

    Both rebuild engines read survivors in place — the pool rebuild out
    of the store, the array rebuild out of the disk image — where the dead
    role's rows are still addressable (and, in a test image, intact), so a
    plan that read one could pass byte verification silently.  The pool
    rebuild does read the dead rows, but only as comparison targets of
    its in-pass verification (``bad_rows``), never as sources.  Checked
    statically, once per compiled plan: no surviving source may lie in
    the dead rows, and the distinct sources per logical disk must equal
    ``scheme.loads`` (the quantity billed).  Raises :class:`ValueError`.
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


class PlanMemo:
    """Compiled, checked plans of one rebuild engine, memoised.

    Calling the memo with ``(role, scheme)`` returns the plan for
    rebuilding ``role`` with ``scheme``: a :class:`BatchReconstructor`
    refused by :func:`check_plan` if it reads the dead role or misstates
    its loads, passed through ``finish`` (identity by default; the pool
    rebuild attaches its billing arrays there).  The key is the plan's
    full semantics, so each distinct scheme is compiled and checked once
    per memo, not once per rebuild.  ``len`` counts the plans held.
    """

    def __init__(self, finish: Callable[[BatchReconstructor], Any] = lambda r: r):
        self._finish = finish
        self._plans: Dict[Tuple, Any] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def __call__(self, role: int, scheme: RecoveryScheme) -> Any:
        key = (role, scheme.failed_mask, tuple(scheme.equations), scheme.read_mask)
        plan = self._plans.get(key)
        if plan is None:
            recon = BatchReconstructor(scheme)
            check_plan(recon, role)
            plan = self._plans[key] = self._finish(recon)
        return plan
