"""Property suite pinning the batched-XOR C kernel to the Python paths.

The kernel (:func:`repro.recovery.ckernel.xor_batch`) must be
byte-identical to both the numpy fold (``_recover_into_numpy``) and the
per-element Python executor (:func:`execute_scheme`) on every plan —
including the degenerate cases the dispatch logic special-cases: empty
batches, single elements, zero-source slots, and the pure-Python
fallback leg (``REPRO_PURE_PYTHON=1`` / no compiler), which must produce
the same bytes through ``recover_batch_into`` without the kernel.

The gathered form (``stripe_ids=``: rows rebuilt straight out of a whole
store by index) is pinned the same way, on both legs, together with the
wrapper's refusals: ids outside the store raise before the kernel runs,
ids or stores it cannot address fall back to numpy.

So is the column form the array rebuild uses: one strided view per
logical disk of a rotated disk image, read in place, with the output a
strided view of the rebuilt image.  It must equal the contiguous 3-D
form, the numpy fold and the per-element executor byte for byte.

The prepared form (a :class:`~repro.codec.batch.ColumnSet`, marshalled
once and reused by a serving shard for every degraded read) must equal
the plain list of views and the numpy fold, call after call.

So is the fused form the pool rebuild uses (``out_rows=`` and
``bad_rows=``): each rebuilt row is written to its named row of a larger
result, the other rows keep their bytes, and each row's mismatch flag
equals an independent numpy comparison with the stored elements — on
both legs, with out-of-range rows refused before anything is written.

A plan that cannot run in list order is refused when compiled, on both
legs, with the same :class:`ValueError` the per-element executor raises.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    ArrayImageCodec,
    BatchReconstructor,
    ColumnSet,
    StripeCodec,
    execute_scheme,
)
from repro.codes import make_code
from repro.recovery import (
    ckernel,
    degraded_read_scheme,
    escalated_scheme,
    scheme_for_disk,
)

from tests.legs import LEGS, kernel, leg_context, pure_python
from tests.strategies import code_and_any_disk


@st.composite
def batch_case(draw):
    code, disk = draw(code_and_any_disk())
    element_size = draw(st.sampled_from([1, 7, 16, 64]))
    n_stripes = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**16))
    return code, disk, element_size, n_stripes, seed


def encode_batch(code, element_size, n_stripes, seed):
    codec = StripeCodec(code, element_size)
    rng = np.random.default_rng(seed)
    if not n_stripes:
        return np.zeros((0, code.layout.n_elements, element_size), dtype=np.uint8)
    return np.stack(
        [codec.encode(codec.random_data(rng)) for _ in range(n_stripes)]
    )


def run_both(recon, stripes):
    """(kernel-or-dispatch output, pure-numpy output) for one batch."""
    n_failed = len(recon.scheme.failed_eids)
    shape = (stripes.shape[0], n_failed, stripes.shape[2])
    out_dispatch = np.empty(shape, dtype=np.uint8)
    out_numpy = np.empty(shape, dtype=np.uint8)
    recon.recover_batch_into(stripes, out_dispatch)
    recon._recover_into_numpy(stripes, out_numpy)
    return out_dispatch, out_numpy


class TestKernelByteIdentity:
    @kernel
    @settings(max_examples=60, deadline=None)
    @given(batch_case())
    def test_kernel_matches_numpy_and_per_element(self, case):
        code, disk, element_size, n_stripes, seed = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        stripes = encode_batch(code, element_size, n_stripes, seed)
        recon = BatchReconstructor(scheme)
        out_dispatch, out_numpy = run_both(recon, stripes)
        assert np.array_equal(out_dispatch, out_numpy)
        for s in range(n_stripes):
            per_element = execute_scheme(scheme, stripes[s])
            for slot, eid in enumerate(scheme.failed_eids):
                assert np.array_equal(out_dispatch[s, slot], per_element[eid]), (
                    s,
                    eid,
                )

    @kernel
    @settings(max_examples=30, deadline=None)
    @given(batch_case())
    def test_kernel_on_random_noncodeword_bytes(self, case):
        """XOR arithmetic alone, independent of valid-codeword structure."""
        code, disk, element_size, n_stripes, seed = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        rng = np.random.default_rng(seed)
        stripes = rng.integers(
            0,
            256,
            size=(n_stripes, code.layout.n_elements, element_size),
            dtype=np.uint8,
        )
        recon = BatchReconstructor(scheme)
        out_dispatch, out_numpy = run_both(recon, stripes)
        assert np.array_equal(out_dispatch, out_numpy)

    @kernel
    def test_empty_batch_and_single_element(self):
        code = make_code("rdp", 5)
        scheme = scheme_for_disk(code, 0, algorithm="u", depth=1)
        recon = BatchReconstructor(scheme)
        for n, esz in ((0, 1), (0, 16), (1, 1), (1, 16)):
            stripes = encode_batch(code, esz, n, seed=n)
            out_dispatch, out_numpy = run_both(recon, stripes)
            assert np.array_equal(out_dispatch, out_numpy)

    @kernel
    def test_direct_wrapper_agrees_with_wrapper_fallbacks(self):
        """xor_batch on valid buffers returns True and fills out correctly;
        non-contiguous or non-uint8 buffers are refused (False), and the
        dispatch layer then serves them through numpy with equal bytes."""
        code = make_code("rdp", 7)
        scheme = scheme_for_disk(code, 2, algorithm="u", depth=1)
        recon = BatchReconstructor(scheme)
        stripes = encode_batch(code, 32, 4, seed=9)
        shape = (4, len(scheme.failed_eids), 32)
        out = np.empty(shape, dtype=np.uint8)
        assert ckernel.xor_batch(stripes, out, recon._src_off, recon._src_ids)
        ref = np.empty(shape, dtype=np.uint8)
        recon._recover_into_numpy(stripes, ref)
        assert np.array_equal(out, ref)

        # non-contiguous input: wrapper refuses, dispatch still serves it
        strided = np.ascontiguousarray(
            np.repeat(stripes, 2, axis=2)
        )[:, :, ::2]
        assert not strided.flags.c_contiguous
        assert not ckernel.xor_batch(strided, out, recon._src_off, recon._src_ids)
        got = np.empty(shape, dtype=np.uint8)
        recon.recover_batch_into(strided, got)
        assert np.array_equal(got, ref)


class TestPurePythonFallback:
    @pytest.fixture
    def no_kernel(self, monkeypatch):
        """Force the REPRO_PURE_PYTHON code path without re-importing."""
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_load_attempted", True)
        yield
        # monkeypatch restores _lib/_load_attempted automatically

    def test_fallback_byte_identical(self, no_kernel):
        assert not ckernel.xor_available()
        code = make_code("rdp", 7)
        scheme = scheme_for_disk(code, 1, algorithm="u", depth=1)
        stripes = encode_batch(code, 16, 5, seed=3)
        recon = BatchReconstructor(scheme)
        shape = (5, len(scheme.failed_eids), 16)
        out = np.empty(shape, dtype=np.uint8)
        recon.recover_batch_into(stripes, out)
        for s in range(5):
            per_element = execute_scheme(scheme, stripes[s])
            for slot, eid in enumerate(scheme.failed_eids):
                assert np.array_equal(out[s, slot], per_element[eid])

    def test_wrapper_reports_fallback(self, no_kernel):
        stripes = np.zeros((1, 4, 8), dtype=np.uint8)
        out = np.zeros((1, 1, 8), dtype=np.uint8)
        off = np.asarray([0, 1], dtype=np.int64)
        ids = np.asarray([0], dtype=np.int32)
        assert ckernel.xor_batch(stripes, out, off, ids) is False


@st.composite
def gather_case(draw):
    code, disk = draw(code_and_any_disk())
    element_size = draw(st.sampled_from([1, 7, 16, 64]))
    n_store = draw(st.integers(1, 8))
    stripe_id = st.integers(0, n_store - 1)
    ids = draw(
        st.one_of(
            st.just([]),
            stripe_id.map(lambda i: [i]),
            # unsorted, usually with repeats
            st.lists(stripe_id, min_size=2, max_size=12),
        )
    )
    seed = draw(st.integers(0, 2**16))
    ids = np.asarray(ids, dtype=np.int64)
    return code, disk, element_size, n_store, ids, seed


def rdp_store():
    """(reconstructor, 5-stripe store of 16-byte elements, scheme)."""
    code = make_code("rdp", 7)
    scheme = scheme_for_disk(code, 3, algorithm="u", depth=1)
    store = encode_batch(code, 16, 5, seed=11)
    return BatchReconstructor(scheme), store, scheme


class TestGatheredKernel:
    @pytest.mark.parametrize("leg", LEGS)
    @settings(max_examples=60, deadline=None)
    @given(case=gather_case())
    def test_gathered_matches_copied_numpy_and_per_element(self, leg, case):
        code, disk, element_size, n_store, ids, seed = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        store = encode_batch(code, element_size, n_store, seed)
        recon = BatchReconstructor(scheme)
        shape = (len(ids), len(scheme.failed_eids), element_size)
        gathered, copied, folded = (np.empty(shape, np.uint8) for _ in range(3))
        with leg_context(leg):
            got = recon.recover_batch_into(store, gathered, stripe_ids=ids)
            assert got is gathered
            recon.recover_batch_into(np.ascontiguousarray(store[ids]), copied)
        recon._recover_into_numpy(store[ids], folded)
        assert np.array_equal(gathered, copied)
        assert np.array_equal(gathered, folded)
        for j, s in enumerate(ids):
            per_element = execute_scheme(scheme, store[s])
            for slot, eid in enumerate(scheme.failed_eids):
                assert np.array_equal(gathered[j, slot], per_element[eid])

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("bad", [-1, 5, 2**40])
    def test_out_of_range_id_raises_on_both_legs(self, leg, bad):
        recon, store, _ = rdp_store()
        ids = np.asarray([0, bad], dtype=np.int64)
        out = np.empty((2, len(recon.scheme.failed_eids), 16), dtype=np.uint8)
        with leg_context(leg), pytest.raises(IndexError, match="out of range"):
            recon.recover_batch_into(store, out, stripe_ids=ids)

    @pytest.mark.parametrize("leg", LEGS)
    def test_non_integer_ids_rejected(self, leg):
        recon, store, _ = rdp_store()
        out = np.empty((1, len(recon.scheme.failed_eids), 16), dtype=np.uint8)
        with leg_context(leg), pytest.raises(IndexError, match="integer"):
            recon.recover_batch_into(store, out, stripe_ids=np.asarray([1.0]))



@st.composite
def scatter_case(draw):
    """A gather case plus a scatter target, flags and corrupted bytes.

    ``out_rows`` names distinct rows of an output ``spare`` rows larger
    than the batch, in shuffled order; ``flips`` are store positions
    ``(stripe, element, byte)`` whose bits are inverted before the run,
    so rebuilt rows and stored rows disagree on some stripes.
    """
    code, disk, element_size, n_store, ids, seed = draw(gather_case())
    spare = draw(st.integers(0, 4))
    n_out = len(ids) + spare
    out_rows = draw(st.permutations(range(n_out)))[: len(ids)]
    flips = draw(st.lists(
        st.tuples(
            st.integers(0, n_store - 1),
            st.integers(0, code.layout.n_elements - 1),
            st.integers(0, element_size - 1),
        ),
        max_size=4,
    ))
    return (code, disk, element_size, n_store, ids, seed, n_out,
            np.asarray(out_rows, dtype=np.int64), flips)


class TestScatteredVerifiedKernel:
    """``out_rows`` + ``bad_rows``: each rebuilt row lands in its place in
    a larger result and is compared with the stored element in the same
    pass, on both legs, against an independent numpy oracle."""

    @pytest.mark.parametrize("leg", LEGS)
    @settings(max_examples=60, deadline=None)
    @given(case=scatter_case())
    def test_scatter_and_flags_match_an_independent_oracle(self, leg, case):
        (code, disk, element_size, n_store, ids, seed, n_out, out_rows,
         flips) = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        store = encode_batch(code, element_size, n_store, seed)
        for s, e, b in flips:
            store[s, e, b] ^= 0xFF
        recon = BatchReconstructor(scheme)
        n_failed = len(scheme.failed_eids)
        sentinel = np.random.default_rng(seed).integers(
            0, 256, size=(n_out, n_failed, element_size), dtype=np.uint8
        )
        out = sentinel.copy()
        flags = np.ones(len(ids), dtype=bool)
        with leg_context(leg):
            got = recon.recover_batch_into(
                store, out, stripe_ids=ids, out_rows=out_rows, bad_rows=flags
            )
        assert got is out
        dense = np.empty((len(ids), n_failed, element_size), np.uint8)
        recon._recover_into_numpy(np.ascontiguousarray(store[ids]), dense)
        assert np.array_equal(out[out_rows], dense)
        untouched = np.setdiff1d(np.arange(n_out), out_rows)
        assert np.array_equal(out[untouched], sentinel[untouched])
        stored = store[ids][:, scheme.failed_eids]
        expected = (dense != stored).any(axis=(1, 2))
        assert np.array_equal(flags, expected)

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("bad", [-1, 3, 2**40])
    def test_out_of_range_row_raises_before_anything_is_written(self, leg, bad):
        recon, store, _ = rdp_store()
        out = np.arange(3 * len(recon.scheme.failed_eids) * 16, dtype=np.uint8)
        out = out.reshape(3, -1, 16)
        before = out.copy()
        flags = np.ones(2, dtype=bool)
        with leg_context(leg), pytest.raises(IndexError, match=f"output row {bad} "):
            recon.recover_batch_into(
                store, out, stripe_ids=np.asarray([0, 1]),
                out_rows=np.asarray([2, bad]), bad_rows=flags,
            )
        assert np.array_equal(out, before)
        assert flags.all()

    @pytest.mark.parametrize("leg", LEGS)
    def test_wrong_length_rows_or_flags_raise(self, leg):
        recon, store, _ = rdp_store()
        out = np.zeros((4, len(recon.scheme.failed_eids), 16), dtype=np.uint8)
        ids = np.asarray([0, 1, 2])
        with leg_context(leg):
            with pytest.raises(ValueError, match="out_rows shape"):
                recon.recover_batch_into(store, out, stripe_ids=ids,
                                         out_rows=np.asarray([0, 1]))
            with pytest.raises(ValueError, match="bad_rows"):
                recon.recover_batch_into(store, out[:3], stripe_ids=ids,
                                         bad_rows=np.zeros(2, dtype=bool))
            with pytest.raises(ValueError, match="bad_rows"):
                recon.recover_batch_into(store, out, stripe_ids=ids,
                                         out_rows=np.asarray([3, 0, 1]),
                                         bad_rows=np.zeros(4, dtype=bool))
        assert not out.any()

    @kernel
    def test_direct_wrapper_scatters_and_flags(self):
        recon, store, scheme = rdp_store()
        store[2, scheme.failed_eids[0], 5] ^= 1  # a dead byte: flagged
        ids = np.asarray([4, 2, 0], dtype=np.int64)
        rows = np.asarray([1, 3, 0], dtype=np.int64)
        out = np.zeros((4, len(scheme.failed_eids), 16), dtype=np.uint8)
        flags = np.zeros(3, dtype=bool)
        assert ckernel.xor_batch(store, out, recon._src_off, recon._src_ids,
                                 ids, rows, recon._check_eids, flags)
        dense = np.empty((3,) + out.shape[1:], np.uint8)
        recon._recover_into_numpy(store[ids], dense)
        assert np.array_equal(out[rows], dense)
        assert not out[2].any()
        assert flags.tolist() == [False, True, False]


class TestGatheredWrapper:
    """``ckernel.xor_batch`` on its own: what it runs, refuses and raises."""

    def _call(self, store, ids, n_rows=None):
        recon, _, scheme = rdp_store()
        n_rows = len(ids) if n_rows is None else n_rows
        out = np.empty((n_rows, len(scheme.failed_eids), store.shape[2]), np.uint8)
        ran = ckernel.xor_batch(store, out, recon._src_off, recon._src_ids, ids)
        return ran, out, recon

    @kernel
    def test_valid_ids_run_the_kernel(self):
        _, store, _ = rdp_store()
        ids = np.asarray([4, 0, 4, 2], dtype=np.int64)
        ran, out, recon = self._call(store, ids)
        assert ran is True
        ref = np.empty_like(out)
        recon._recover_into_numpy(store[ids], ref)
        assert np.array_equal(out, ref)

    @kernel
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_id_raises_before_the_kernel(self, bad):
        _, store, _ = rdp_store()
        with pytest.raises(IndexError, match=f"stripe id {bad} out of range"):
            self._call(store, np.asarray([1, bad], dtype=np.int64))

    @kernel
    def test_wrong_length_ids_raise(self):
        _, store, _ = rdp_store()
        with pytest.raises(ValueError, match="stripe_ids shape"):
            self._call(store, np.asarray([0, 1], dtype=np.int64), n_rows=3)

    @kernel
    def test_int32_ids_refused(self):
        _, store, _ = rdp_store()
        ran, _, _ = self._call(store, np.asarray([0, 1], dtype=np.int32))
        assert ran is False

    @kernel
    def test_non_contiguous_ids_refused(self):
        _, store, _ = rdp_store()
        ids = np.asarray([0, 9, 1, 9, 2, 9], dtype=np.int64)[::2]
        assert not ids.flags.c_contiguous
        ran, _, _ = self._call(store, ids)
        assert ran is False

    @kernel
    def test_non_contiguous_store_refused_and_dispatch_still_serves(self):
        recon, store, scheme = rdp_store()
        strided = np.ascontiguousarray(np.repeat(store, 2, axis=2))[:, :, ::2]
        assert not strided.flags.c_contiguous
        ids = np.asarray([3, 1, 3], dtype=np.int64)
        ran, _, _ = self._call(strided, ids)
        assert ran is False
        got = np.empty((3, len(scheme.failed_eids), 16), dtype=np.uint8)
        ref = np.empty_like(got)
        recon.recover_batch_into(strided, got, stripe_ids=ids)
        recon._recover_into_numpy(store[ids], ref)
        assert np.array_equal(got, ref)

    def test_pure_python_leg_reports_fallback(self):
        _, store, _ = rdp_store()
        with pure_python():
            ran, _, _ = self._call(store, np.asarray([0], dtype=np.int64))
        assert ran is False


@st.composite
def column_case(draw):
    """A rotated disk image and one chunk of it, as the rebuild slices it.

    The chunk is ``count`` stripes ``start, start + step, ...`` (or, with
    ``gather``, arbitrary stripe ids) of an image of ``total`` stripes;
    logical disk ``l`` lives on physical disk ``(l + rotation) % n``.
    """
    code, disk = draw(code_and_any_disk())
    n = code.layout.n_disks
    element_size = draw(st.sampled_from([1, 7, 13, 16, 64]))
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 6)))
    step = draw(st.integers(1, 4))
    start = draw(st.integers(0, 5))
    total = start + step * max(count - 1, 0) + 1 + draw(st.integers(0, 3))
    rotation = draw(st.integers(0, n - 1))
    out_step = draw(st.integers(1, 3))
    gather = draw(st.booleans())
    ids = draw(st.lists(st.integers(0, total - 1), min_size=count,
                        max_size=count))
    seed = draw(st.integers(0, 2**16))
    return (code, disk, element_size, count, step, start, total, rotation,
            out_step, np.asarray(ids, dtype=np.int64) if gather else None, seed)


class TestColumnForm:
    @pytest.mark.parametrize("leg", LEGS)
    @settings(max_examples=60, deadline=None)
    @given(case=column_case())
    def test_columns_match_contiguous_numpy_and_per_element(self, leg, case):
        (code, disk, element_size, count, step, start, total, rotation,
         out_step, ids, seed) = case
        lay = code.layout
        n, k = lay.n_disks, lay.k_rows
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        recon = BatchReconstructor(scheme)
        rng = np.random.default_rng(seed)
        disks4 = rng.integers(0, 256, size=(n, total, k, element_size),
                              dtype=np.uint8)
        if ids is None:
            rows = slice(start, start + step * count, step)
            stripe_of = np.arange(total)[rows]
        else:
            rows, stripe_of = slice(None), ids
        cols = [disks4[(l + rotation) % n, rows] for l in range(n)]
        n_failed = len(scheme.failed_eids)
        backing = np.zeros((count * out_step, n_failed, element_size), np.uint8)
        strided = backing[::out_step]
        contiguous, folded = (
            np.empty((count, n_failed, element_size), np.uint8) for _ in range(2)
        )
        # the same chunk as one contiguous (count, n_elements, esz) batch
        batch = np.ascontiguousarray(
            np.concatenate(cols, axis=1)[stripe_of if ids is not None else slice(None)]
        )
        with leg_context(leg):
            got = recon.recover_batch_into(cols, strided, stripe_ids=ids)
            assert got is strided
            recon.recover_batch_into(batch, contiguous)
        recon._recover_into_numpy(cols, folded, ids)
        assert np.array_equal(strided, contiguous)
        assert np.array_equal(strided, folded)
        for j in range(count):
            per_element = execute_scheme(scheme, batch[j])
            for slot, eid in enumerate(scheme.failed_eids):
                assert np.array_equal(strided[j, slot], per_element[eid])

    @staticmethod
    def _columns(store, layout):
        """One view per logical disk of a ``(n, n_elements, esz)`` store."""
        split = store.reshape(len(store), layout.n_disks, layout.k_rows, -1)
        return list(split.transpose(1, 0, 2, 3))

    def test_columns_of_the_wrong_width_raise(self):
        recon, store, scheme = rdp_store()
        cols = self._columns(store, scheme.layout)
        out = np.empty((5, len(recon.scheme.failed_eids), 16), np.uint8)
        with pytest.raises(ValueError, match="stripe width"):
            recon.recover_batch_into(cols[:-1], out)
        with pytest.raises(ValueError, match="differ in shape"):
            recon.recover_batch_into([c[:4] for c in cols[:-1]] + [cols[-1]], out)

    @kernel
    def test_columns_with_unequal_strides_fall_back_to_numpy(self):
        recon, store, scheme = rdp_store()
        cols = self._columns(store, scheme.layout)
        cols[3] = np.ascontiguousarray(cols[3])  # its own stripe stride
        assert cols[3].strides[0] != cols[0].strides[0]
        out = np.empty((5, len(recon.scheme.failed_eids), 16), np.uint8)
        assert not ckernel.xor_batch(cols, out, recon._src_off, recon._src_ids)
        ref = np.empty_like(out)
        recon.recover_batch_into(cols, out)
        recon._recover_into_numpy(store, ref)
        assert np.array_equal(out, ref)


@st.composite
def prepared_case(draw):
    """A rotated disk image and a few gathers out of it, as a shard reads.

    Each gather is a list of stripe ids: empty, single, or unsorted with
    repeats; ``out_step`` spaces the output rows apart.
    """
    code, disk = draw(code_and_any_disk())
    element_size = draw(st.sampled_from([1, 7, 13, 16, 64]))
    total = draw(st.integers(1, 8))
    rotation = draw(st.integers(0, code.layout.n_disks - 1))
    stripe_id = st.integers(0, total - 1)
    gathers = draw(st.lists(
        st.one_of(
            st.just([]),
            stripe_id.map(lambda i: [i]),
            st.lists(stripe_id, min_size=2, max_size=12),
        ),
        min_size=1, max_size=4,
    ))
    out_step = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    return code, disk, element_size, total, rotation, gathers, out_step, seed


def rotated_columns(code, total, element_size, rotation, seed):
    """One view per logical disk of a random ``total``-stripe disk image."""
    n, k = code.layout.n_disks, code.layout.k_rows
    rng = np.random.default_rng(seed)
    disks4 = rng.integers(0, 256, size=(n, total, k, element_size), dtype=np.uint8)
    return [disks4[(l + rotation) % n] for l in range(n)]


class TestPreparedColumns:
    @pytest.mark.parametrize("leg", LEGS)
    @settings(max_examples=60, deadline=None)
    @given(case=prepared_case())
    def test_prepared_equals_list_and_numpy_across_reuse(self, leg, case):
        """One prepared set, reused for every gather and output buffer,
        gives the bytes of the plain list of views and of the numpy fold."""
        code, disk, element_size, total, rotation, gathers, out_step, seed = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        recon = BatchReconstructor(scheme)
        cols = rotated_columns(code, total, element_size, rotation, seed)
        prepared = ColumnSet(cols)
        assert prepared.bases is not None
        n_failed = len(scheme.failed_eids)
        for ids in gathers:
            ids = np.asarray(ids, dtype=np.int64)
            shape = (len(ids), n_failed, element_size)
            backing = np.zeros((len(ids) * out_step, n_failed, element_size),
                               np.uint8)
            from_prepared = backing[::out_step]
            from_list, folded = (np.empty(shape, np.uint8) for _ in range(2))
            with leg_context(leg):
                got = recon.recover_batch_into(prepared, from_prepared, ids)
                assert got is from_prepared
                recon.recover_batch_into(cols, from_list, stripe_ids=ids)
            recon._recover_into_numpy(cols, folded, ids)
            assert np.array_equal(from_prepared, from_list)
            assert np.array_equal(from_prepared, folded)

    @pytest.mark.parametrize("leg", LEGS)
    def test_one_set_many_plans_and_outputs(self, leg):
        """Every degraded-row plan of every role runs over one prepared set
        per rotation, each call into a fresh output, as a shard serves:
        the answers are the failed disk's true bytes, call after call."""
        code = make_code("rdp", 7)
        lay = code.layout
        n, k = lay.n_disks, lay.k_rows
        codec = ArrayImageCodec(code, element_size=16, n_stripes=2 * n)
        image = codec.encode_image(codec.random_image(np.random.default_rng(5)))
        truth = codec.view_image(image)[3].copy()
        role_of = codec.placement.roles_of_disk(3)[1].tolist()
        # one prepared set per rotation, keyed by the role disk 3 plays
        prepared = {role_of[s]: codec.rotation_columns(image, s) for s in range(n)}
        del image  # the sets keep their views (and the image) alive
        with leg_context(leg):
            for s in range(codec.n_stripes):
                role = role_of[s]
                ids = np.asarray([s, s], dtype=np.int64)
                for r in range(k):
                    recon = BatchReconstructor(
                        degraded_read_scheme(code, role, [r], depth=1)
                    )
                    slot = recon.scheme.failed_eids.index(lay.eid(role, r))
                    shape = (2, len(recon.scheme.failed_eids), 16)
                    first, again, listed = (
                        np.empty(shape, np.uint8) for _ in range(3)
                    )
                    recon.recover_batch_into(prepared[role], first, ids)
                    recon.recover_batch_into(prepared[role], again, ids)
                    recon.recover_batch_into(list(prepared[role].cols), listed, ids)
                    assert np.array_equal(first, again)
                    assert np.array_equal(first, listed)
                    assert np.array_equal(first[:, slot], truth[ids, r])

    def test_columns_of_differing_shape_are_refused(self):
        code = make_code("rdp", 7)
        cols = rotated_columns(code, 5, 16, 0, seed=1)
        with pytest.raises(ValueError, match="differ in shape"):
            ColumnSet(cols[:-1] + [cols[-1][:4]])
        with pytest.raises(ValueError, match="expected"):
            ColumnSet([])
        with pytest.raises(ValueError, match="expected"):
            ColumnSet([c[:, 0] for c in cols])

    @pytest.mark.parametrize("leg", LEGS)
    def test_columns_of_differing_stride_are_refused_by_the_kernel(self, leg):
        """No base pointers are marshalled for columns the kernel cannot
        address; every call over that set runs the numpy fold instead."""
        code = make_code("rdp", 7)
        scheme = scheme_for_disk(code, 2, algorithm="u", depth=1)
        recon = BatchReconstructor(scheme)
        cols = rotated_columns(code, 5, 16, 4, seed=2)
        cols[1] = np.repeat(cols[1], 2, axis=0)[::2]  # its own stripe stride
        assert cols[1].strides[0] != cols[0].strides[0]
        prepared = ColumnSet(cols)
        assert prepared.bases is None
        ids = np.asarray([4, 0, 4], dtype=np.int64)
        out = np.empty((3, len(scheme.failed_eids), 16), np.uint8)
        ref = np.empty_like(out)
        with leg_context(leg):
            recon.recover_batch_into(prepared, out, ids)
        recon._recover_into_numpy(cols, ref, ids)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("leg", LEGS)
    def test_prepared_set_still_checks_ids_and_width(self, leg):
        code = make_code("rdp", 7)
        recon = BatchReconstructor(scheme_for_disk(code, 0, algorithm="u", depth=1))
        cols = rotated_columns(code, 5, 16, 0, seed=3)
        out = np.empty((1, len(recon.scheme.failed_eids), 16), np.uint8)
        with leg_context(leg):
            with pytest.raises(IndexError, match="stripe id 5 out of range"):
                recon.recover_batch_into(ColumnSet(cols), out, np.asarray([5]))
            with pytest.raises(ValueError, match="stripe width"):
                recon.recover_batch_into(ColumnSet(cols[:-1]), out, np.asarray([0]))


class TestOutOfOrderPlans:
    """A plan whose slot uses a failed element only a *later* slot recovers
    is refused when compiled, on both legs, instead of XORing bytes that do
    not exist yet; the scalar executor refuses it with the same error."""

    @staticmethod
    def _double_failure():
        """A valid rdp-7 plan for disks 0 and 4, whose slots chain."""
        code = make_code("rdp", 7)
        return code, escalated_scheme(code, 0, [], 4)

    @pytest.mark.parametrize("leg", LEGS)
    def test_compile_refuses_and_execute_scheme_agrees(self, leg):
        code, scheme = self._double_failure()
        backwards = dataclasses.replace(
            scheme,
            failed_eids=scheme.failed_eids[::-1],
            equations=scheme.equations[::-1],
        )
        with leg_context(leg):
            with pytest.raises(ValueError, match="no earlier slot") as compiled:
                BatchReconstructor(backwards)
        with pytest.raises(ValueError, match="no earlier slot") as scalar:
            execute_scheme(backwards, encode_batch(code, 16, 1, seed=5)[0])
        message = str(compiled.value)
        assert message == str(scalar.value)
        # names the first offending slot and the element it is missing
        recovered = 0
        for slot, (f, eq) in enumerate(
            zip(backwards.failed_eids, backwards.equations)
        ):
            if eq & backwards.failed_mask & ~(recovered | (1 << f)):
                break
            recovered |= 1 << f
        assert message.startswith(f"scheme slot {slot} (element {f}) uses")

    @pytest.mark.parametrize("leg", LEGS)
    def test_element_no_slot_recovers_is_refused(self, leg):
        """Dropping a slot leaves its element failed but never recovered."""
        _, scheme = self._double_failure()
        needed = next(
            i for i, f in enumerate(scheme.failed_eids)
            if any(eq >> f & 1 for eq in scheme.equations[i + 1:])
        )
        dropped = dataclasses.replace(
            scheme,
            failed_eids=scheme.failed_eids[:needed] + scheme.failed_eids[needed + 1:],
            equations=scheme.equations[:needed] + scheme.equations[needed + 1:],
        )
        missing = scheme.failed_eids[needed]
        with leg_context(leg), pytest.raises(
            ValueError, match=f"uses failed element {missing},"
        ):
            BatchReconstructor(dropped)
