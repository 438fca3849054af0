"""Tests for the fault-injecting stripe store."""

import numpy as np
import pytest

from repro.codec import StripeCodec, element_checksum
from repro.codes import RdpCode
from repro.faults import (
    CORRUPTION_XOR,
    DiskDeadError,
    DiskFailure,
    FaultPlan,
    FaultyStripeStore,
    LatentSectorError,
    ReadError,
    SilentCorruption,
)


@pytest.fixture(scope="module")
def code():
    return RdpCode(5)


@pytest.fixture(scope="module")
def stripes(code):
    codec = StripeCodec(code, element_size=16)
    rng = np.random.default_rng(3)
    return [codec.encode(codec.random_data(rng)) for _ in range(3)]


class TestCleanReads:
    def test_reads_match_and_count(self, code, stripes):
        store = FaultyStripeStore(code.layout, stripes)
        data = store.read(1, 0)
        assert np.array_equal(data, stripes[1][0])
        assert store.total_read_attempts == 1
        assert store.reads_per_disk == {0: 1}

    def test_read_returns_a_copy(self, code, stripes):
        store = FaultyStripeStore(code.layout, stripes)
        data = store.read(0, 0)
        data[:] = 0
        assert np.array_equal(store.read(0, 0), stripes[0][0])

    def test_checksums_match_pristine(self, code, stripes):
        store = FaultyStripeStore(code.layout, stripes)
        for eid in range(code.layout.n_elements):
            assert store.checksum(0, eid) == element_checksum(stripes[0][eid])

    def test_stripe_shape_validated(self, code, stripes):
        with pytest.raises(ValueError, match="elements"):
            FaultyStripeStore(code.layout, [stripes[0][:-1]])


class TestFaultyReads:
    def test_lse_raises(self, code, stripes):
        lay = code.layout
        plan = FaultPlan([LatentSectorError(1, 2, stripe=0)])
        store = FaultyStripeStore(lay, stripes, plan)
        with pytest.raises(ReadError, match="medium error"):
            store.read(0, lay.eid(1, 2))
        # attempts are still counted
        assert store.total_read_attempts == 1
        # other stripes unaffected
        assert np.array_equal(
            store.read(1, lay.eid(1, 2)), stripes[1][lay.eid(1, 2)]
        )

    def test_corruption_is_silent_but_checksum_detectable(self, code, stripes):
        lay = code.layout
        plan = FaultPlan([SilentCorruption(2, 0)])
        store = FaultyStripeStore(lay, stripes, plan)
        eid = lay.eid(2, 0)
        data = store.read(0, eid)  # no exception: silent
        assert np.array_equal(data, stripes[0][eid] ^ CORRUPTION_XOR)
        assert element_checksum(data) != store.checksum(0, eid)

    def test_dead_disk(self, code, stripes):
        lay = code.layout
        plan = FaultPlan([DiskFailure(3, at_stripe=1)])
        store = FaultyStripeStore(lay, stripes, plan)
        eid = lay.eid(3, 0)
        # before the death stripe the disk still serves
        assert np.array_equal(store.read(0, eid), stripes[0][eid])
        with pytest.raises(DiskDeadError):
            store.read(1, eid)
        with pytest.raises(DiskDeadError):
            store.read(2, eid)


class TestReadInto:
    def test_lands_in_the_given_row_faults_applied(self, code, stripes):
        lay = code.layout
        eid = lay.eid(2, 0)
        store = FaultyStripeStore(lay, stripes, FaultPlan([SilentCorruption(2, 0)]))
        buf = np.zeros((lay.n_elements, 16), dtype=np.uint8)
        out = store.read_into(0, 1, buf[1])
        assert np.shares_memory(out, buf) and np.array_equal(buf[1], stripes[0][1])
        store.read_into(0, eid, buf[eid])
        assert np.array_equal(buf[eid], stripes[0][eid] ^ CORRUPTION_XOR)
        assert store.total_read_attempts == 2

    def test_a_raising_read_leaves_the_row_alone(self, code, stripes):
        lay = code.layout
        plan = FaultPlan([LatentSectorError(1, 2), DiskFailure(3, at_stripe=0)])
        store = FaultyStripeStore(lay, stripes, plan)
        row = np.full(16, 7, dtype=np.uint8)
        with pytest.raises(ReadError):
            store.read_into(0, lay.eid(1, 2), row)
        with pytest.raises(DiskDeadError):
            store.read_into(0, lay.eid(3, 0), row)
        assert (row == 7).all()
        assert store.total_read_attempts == 2

    def test_out_of_range_eid_raises_before_counting(self, code, stripes):
        lay = code.layout
        store = FaultyStripeStore(lay, stripes)
        row = np.zeros(16, dtype=np.uint8)
        for eid in (-1, lay.n_elements):
            with pytest.raises(IndexError):
                store.read_into(0, eid, row)
        assert store.total_read_attempts == 0

    def test_lse_outranks_corruption_of_the_same_element(self, code, stripes):
        lay = code.layout
        eid = lay.eid(1, 2)
        plan = FaultPlan([
            SilentCorruption(1, 2), LatentSectorError(1, 2, stripe=1),
        ])
        store = FaultyStripeStore(lay, stripes, plan)
        row = np.zeros(16, dtype=np.uint8)
        with pytest.raises(ReadError):
            store.read_into(1, eid, row)
        # stripe 0 has only the corruption
        store.read_into(0, eid, row)
        assert np.array_equal(row, stripes[0][eid] ^ CORRUPTION_XOR)
