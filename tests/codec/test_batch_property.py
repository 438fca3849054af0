"""Property test: batch recovery is byte-identical to per-stripe execution.

``BatchReconstructor.recover_batch_into`` (the C kernel, or the numpy
fold without it) must agree with :func:`execute_scheme` for every stripe
of every batch — across code families, failed disks, element sizes and
batch sizes, including the degenerate batches of size 1 and 0.  Here
``recover_batch`` is this module's dict-shaped view of that one call:
failed eid -> ``(n_stripes, element_size)`` rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import BatchReconstructor, StripeCodec, execute_scheme
from repro.recovery import scheme_for_disk

from tests.strategies import code_and_any_disk


@st.composite
def batch_case(draw):
    code, disk = draw(code_and_any_disk())
    element_size = draw(st.sampled_from([1, 3, 16]))
    n_stripes = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**16))
    return code, disk, element_size, n_stripes, seed


def encode_batch(code, element_size, n_stripes, seed):
    codec = StripeCodec(code, element_size)
    rng = np.random.default_rng(seed)
    return np.stack(
        [codec.encode(codec.random_data(rng)) for _ in range(n_stripes)]
    ) if n_stripes else np.zeros(
        (0, code.layout.n_elements, element_size), dtype=np.uint8
    )


def recover_batch(recon, stripes, run=None):
    """Recover a batch through ``run`` (default: ``recover_batch_into``)
    and key the slots by failed eid."""
    eids = recon.scheme.failed_eids
    out = np.empty((stripes.shape[0], len(eids), stripes.shape[2]), np.uint8)
    (run or recon.recover_batch_into)(stripes, out)
    return {eid: out[:, slot, :] for slot, eid in enumerate(eids)}


class TestBatchMatchesPerStripe:
    @settings(max_examples=60, deadline=None)
    @given(batch_case())
    def test_recover_batch_byte_identical(self, case):
        code, disk, element_size, n_stripes, seed = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        stripes = encode_batch(code, element_size, n_stripes, seed)
        batch_out = recover_batch(BatchReconstructor(scheme), stripes)

        assert set(batch_out) == set(scheme.failed_eids)
        for s in range(n_stripes):
            per_stripe = execute_scheme(scheme, stripes[s])
            for eid, data in per_stripe.items():
                assert np.array_equal(batch_out[eid][s], data), (eid, s)

    @settings(max_examples=30, deadline=None)
    @given(batch_case())
    def test_recover_batch_into_matches_recover_batch(self, case):
        code, disk, element_size, n_stripes, seed = case
        scheme = scheme_for_disk(code, disk, algorithm="u", depth=1)
        stripes = encode_batch(code, element_size, n_stripes, seed)
        recon = BatchReconstructor(scheme)
        # the numpy fold is the reference the kernel dispatch must match
        expected = recover_batch(recon, stripes, recon._recover_into_numpy)
        out = np.empty(
            (n_stripes, len(scheme.failed_eids), element_size), dtype=np.uint8
        )
        returned = recon.recover_batch_into(stripes, out)
        assert returned is out
        for slot, eid in enumerate(scheme.failed_eids):
            assert np.array_equal(out[:, slot, :], expected[eid]), eid

    def test_batch_size_zero_and_one_explicit(self):
        from repro.codes import make_code

        code = make_code("rdp", 7)
        scheme = scheme_for_disk(code, 0, algorithm="u", depth=1)
        recon = BatchReconstructor(scheme)
        for n in (0, 1):
            stripes = encode_batch(code, 8, n, seed=n)
            got = recover_batch(recon, stripes)
            for eid, data in got.items():
                assert data.shape == (n, 8)
                for s in range(n):
                    assert np.array_equal(
                        data[s], execute_scheme(scheme, stripes[s])[eid]
                    )
