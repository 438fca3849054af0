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
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import BatchReconstructor, StripeCodec, execute_scheme
from repro.recovery import ckernel, scheme_for_disk

from tests.strategies import code_and_any_disk

kernel = pytest.mark.skipif(
    not ckernel.xor_available(), reason="C kernel unavailable (no compiler?)"
)


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
        from repro.codes import make_code

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
        from repro.codes import make_code

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
        from repro.codes import make_code

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


@contextmanager
def pure_python():
    """The ``REPRO_PURE_PYTHON`` leg, inside a Hypothesis example."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_PURE_PYTHON", "1")
        mp.setattr(ckernel, "_lib", None)
        mp.setattr(ckernel, "_load_attempted", True)
        yield


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


LEGS = [
    pytest.param("kernel", marks=kernel),
    pytest.param("pure"),
]


@contextmanager
def leg_context(leg):
    if leg == "pure":
        with pure_python():
            assert not ckernel.xor_available()
            yield
    else:
        yield


def rdp_store():
    """(reconstructor, 5-stripe store of 16-byte elements, scheme)."""
    from repro.codes import make_code

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
