"""Tests for degraded-read planning and service."""

import numpy as np
import pytest

from repro.codec import StripeCodec, execute_scheme
from repro.codes import EvenOddCode, RdpCode
from repro.recovery import degraded_read_scheme, u_scheme


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


@pytest.fixture(scope="module")
def stripe(rdp7):
    codec = StripeCodec(rdp7, element_size=64)
    return codec.encode(codec.random_data(np.random.default_rng(5)))


class TestPlanning:
    def test_single_row(self, rdp7):
        s = degraded_read_scheme(rdp7, 0, rows=[2])
        assert s.failed_eids == [rdp7.layout.eid(0, 2)]
        s.validate(rdp7)

    def test_subset_cheaper_than_full_disk(self, rdp7):
        full = u_scheme(rdp7, 0, depth=1)
        partial = degraded_read_scheme(rdp7, 0, rows=[0, 1])
        assert partial.total_reads < full.total_reads
        assert partial.max_load <= full.max_load

    def test_no_rows_rejected(self, rdp7):
        with pytest.raises(ValueError, match="no rows"):
            degraded_read_scheme(rdp7, 0, rows=[])

    def test_never_reads_failed_disk(self, rdp7):
        s = degraded_read_scheme(rdp7, 1, rows=[3, 4])
        assert s.read_mask & rdp7.layout.disk_mask(1) == 0

    def test_multiple_rows_ordered(self, rdp7):
        s = degraded_read_scheme(rdp7, 0, rows=[5, 0, 3])
        assert s.failed_eids == sorted(s.failed_eids)
        assert len(s.failed_eids) == 3

    def test_khan_mode(self, rdp7):
        u = degraded_read_scheme(rdp7, 0, rows=[1], algorithm="u")
        k = degraded_read_scheme(rdp7, 0, rows=[1], algorithm="khan")
        assert k.total_reads <= u.total_reads


class TestService:
    def test_served_bytes_exact(self, rdp7, stripe):
        for rows in ([0], [2, 4], [0, 1, 5]):
            scheme = degraded_read_scheme(rdp7, 0, rows=rows)
            out = execute_scheme(scheme, stripe)
            for row in rows:
                eid = rdp7.layout.eid(0, row)
                assert np.array_equal(out[eid], stripe[eid])

    def test_evenodd_service(self):
        code = EvenOddCode(5)
        codec = StripeCodec(code, element_size=32)
        stripe = codec.encode(codec.random_data(np.random.default_rng(6)))
        scheme = degraded_read_scheme(code, 2, rows=[1, 3])
        out = execute_scheme(scheme, stripe)
        for row in (1, 3):
            eid = code.layout.eid(2, row)
            assert np.array_equal(out[eid], stripe[eid])
