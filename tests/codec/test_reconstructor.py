"""Tests for scheme execution and byte-exact recovery."""

import numpy as np
import pytest

from repro.codec import StripeCodec, execute_scheme
from repro.codec.verify import verify_scheme_on_random_data
from repro.codes import EvenOddCode, RdpCode, StarCode, make_code
from repro.recovery import c_scheme, khan_scheme, naive_scheme, u_scheme


@pytest.fixture(scope="module")
def rdp5():
    return RdpCode(5)


@pytest.fixture(scope="module")
def stripe_and_codec(rdp5):
    codec = StripeCodec(rdp5, element_size=64)
    stripe = codec.encode(codec.random_data(np.random.default_rng(11)))
    return stripe, codec


class TestExecuteScheme:
    def test_recovers_exact_bytes(self, rdp5, stripe_and_codec):
        stripe, _ = stripe_and_codec
        scheme = u_scheme(rdp5, 0)
        recovered = execute_scheme(scheme, stripe)
        assert set(recovered) == set(scheme.failed_eids)
        for eid, data in recovered.items():
            assert np.array_equal(data, stripe[eid])

    def test_wrong_stripe_shape(self, rdp5):
        scheme = u_scheme(rdp5, 0)
        with pytest.raises(ValueError, match="elements"):
            execute_scheme(scheme, np.zeros((3, 8), dtype=np.uint8))

    def test_never_reads_failed_bytes(self, rdp5, stripe_and_codec):
        """Zeroing the failed disk's stored bytes must not change results."""
        stripe, _ = stripe_and_codec
        scheme = khan_scheme(rdp5, 1)
        blanked = stripe.copy()
        for eid in scheme.failed_eids:
            blanked[eid] = 0
        out = execute_scheme(scheme, blanked)
        for eid, data in out.items():
            assert np.array_equal(data, stripe[eid])


class TestVerifyHelper:
    @pytest.mark.parametrize("family", ["rdp", "evenodd", "star", "liberation"])
    @pytest.mark.parametrize("alg", [naive_scheme, khan_scheme, c_scheme, u_scheme])
    def test_all_algorithms_all_families(self, family, alg):
        code = make_code(family, 7)
        scheme = alg(code, 0)
        assert verify_scheme_on_random_data(code, scheme, seed=21)

    def test_parity_disk_recovery(self):
        code = EvenOddCode(5)
        for parity_disk in code.layout.parity_disks:
            scheme = u_scheme(code, parity_disk)
            assert verify_scheme_on_random_data(code, scheme, seed=22)

    def test_multiple_stripes(self):
        code = StarCode(5)
        scheme = u_scheme(code, 0)
        assert verify_scheme_on_random_data(
            code, scheme, element_size=16, n_stripes=5, seed=23
        )
