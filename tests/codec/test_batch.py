"""Tests for the vectorized batch reconstructor."""

from dataclasses import replace

import numpy as np
import pytest

from repro.codec import StripeCodec, execute_scheme
from repro.codec.batch import BatchReconstructor, CompiledPlanCache
from repro.codes import CauchyRSCode, RdpCode
from repro.codes.layout import CodeLayout
from repro.recovery import u_scheme


@pytest.fixture(scope="module")
def rdp5():
    return RdpCode(5)


@pytest.fixture(scope="module")
def batch(rdp5):
    codec = StripeCodec(rdp5, element_size=32)
    rng = np.random.default_rng(3)
    return np.stack([codec.encode(codec.random_data(rng)) for _ in range(6)])


def recover(recon, stripes):
    """``recover_batch_into`` into a fresh ``(n, n_failed, esz)`` buffer."""
    out = np.empty(
        (stripes.shape[0], len(recon.scheme.failed_eids), stripes.shape[2]),
        dtype=np.uint8,
    )
    return recon.recover_batch_into(stripes, out)


def verifies(recon, stripes):
    """Recovered bytes equal the stored bytes of every failed element."""
    return np.array_equal(
        recover(recon, stripes), stripes[:, recon.scheme.failed_eids]
    )


class TestBatchReconstructor:
    def test_matches_scalar_path(self, rdp5, batch):
        scheme = u_scheme(rdp5, 0, depth=1)
        recon = BatchReconstructor(scheme)
        out = recover(recon, batch)
        for s in range(batch.shape[0]):
            scalar = execute_scheme(scheme, batch[s])
            for slot, eid in enumerate(scheme.failed_eids):
                assert np.array_equal(out[s, slot], scalar[eid])

    def test_verify_batch(self, rdp5, batch):
        assert verifies(BatchReconstructor(u_scheme(rdp5, 0, depth=1)), batch)

    def test_detects_corruption(self, rdp5, batch):
        damaged = batch.copy()
        damaged[2, rdp5.layout.eid(1, 0), 0] ^= 0xFF  # corrupt a survivor
        assert not verifies(BatchReconstructor(u_scheme(rdp5, 0, depth=1)), damaged)

    def test_shape_validation(self, rdp5, batch):
        recon = BatchReconstructor(u_scheme(rdp5, 0, depth=1))
        out = np.empty((6, len(recon.scheme.failed_eids), 32), dtype=np.uint8)
        with pytest.raises(ValueError):
            recon.recover_batch_into(batch[0], out)
        with pytest.raises(ValueError):
            recon.recover_batch_into(batch[:, :3, :], out)

    def test_iteration_chains_vectorize(self):
        """Schemes whose equations feed on earlier recovered elements work
        batched too (Cauchy codes exercise that path)."""
        code = CauchyRSCode(4, 2, w=4)
        codec = StripeCodec(code, element_size=16)
        rng = np.random.default_rng(4)
        stripes = np.stack(
            [codec.encode(codec.random_data(rng)) for _ in range(4)]
        )
        for disk in range(4):
            scheme = u_scheme(code, disk, depth=1)
            assert verifies(BatchReconstructor(scheme), stripes)

    def test_single_stripe_batch(self, rdp5):
        codec = StripeCodec(rdp5, element_size=8)
        stripes = codec.encode(codec.random_data(np.random.default_rng(5)))[None]
        assert verifies(BatchReconstructor(u_scheme(rdp5, 1, depth=1)), stripes)

    def test_inplace_accumulator_matches_reference(self, rdp5):
        """The out=-accumulating fold equals a naive reduce on random bytes.

        Random (non-codeword) stripes exercise the XOR arithmetic itself,
        independent of whether the scheme actually reconstructs anything.
        """
        rng = np.random.default_rng(11)
        stripes = rng.integers(
            0, 256, size=(5, rdp5.layout.n_elements, 16), dtype=np.uint8
        )
        scheme = u_scheme(rdp5, 0, depth=1)
        out = recover(BatchReconstructor(scheme), stripes)
        # reference: per failed element, XOR-reduce every equation member
        # (survivors from the stripes, earlier failed from the reference
        # outputs), exactly as the plan defines
        ref = {}
        for f, eq in zip(scheme.failed_eids, scheme.equations):
            acc = np.zeros((5, 16), dtype=np.uint8)
            m = eq & ~(1 << f)
            while m:
                low = m & -m
                eid = low.bit_length() - 1
                m ^= low
                src = ref[eid] if (scheme.failed_mask >> eid) & 1 else stripes[:, eid, :]
                acc = acc ^ src
            ref[f] = acc
        assert set(scheme.failed_eids) == set(ref)
        for slot, eid in enumerate(scheme.failed_eids):
            assert np.array_equal(out[:, slot], ref[eid])


class TestCompiledPlanCache:
    def test_one_compile_per_plan_and_layout(self, rdp5):
        """Plans with the same mask and equations over layouts of
        different width are different entries: a cache shared by several
        codes must not hand one code a plan compiled for another."""
        scheme = u_scheme(rdp5, 0, depth=1)
        lay = rdp5.layout
        wider = replace(
            scheme,
            layout=CodeLayout(lay.n_data + 1, lay.m_parity, lay.k_rows),
        )
        cache = CompiledPlanCache()
        first = cache.reconstructor(scheme)
        assert cache.reconstructor(replace(scheme)) is first
        other = cache.reconstructor(wider)
        assert other is not first and other.scheme.layout == wider.layout
        assert len(cache) == 2

    def test_bounded_lru(self, rdp5):
        schemes = [u_scheme(rdp5, d, depth=1) for d in range(3)]
        cache = CompiledPlanCache(max_entries=2)
        a, b = (cache.reconstructor(s) for s in schemes[:2])
        assert cache.reconstructor(schemes[0]) is a  # a is now most recent
        cache.reconstructor(schemes[2])  # evicts b
        assert len(cache) == 2
        assert cache.reconstructor(schemes[0]) is a
        assert cache.reconstructor(schemes[1]) is not b
        with pytest.raises(ValueError):
            CompiledPlanCache(max_entries=0)
