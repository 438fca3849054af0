"""Tests for the rotated whole-array image codec."""

import numpy as np
import pytest

from repro.codec.image import ArrayImageCodec
from repro.codes import EvenOddCode, RdpCode, StarCode
from repro.recovery import RecoveryPlanner


@pytest.fixture(scope="module")
def rdp5():
    return RdpCode(5)


@pytest.fixture(scope="module")
def codec(rdp5):
    return ArrayImageCodec(rdp5, element_size=16, n_stripes=rdp5.layout.n_disks)


@pytest.fixture(scope="module")
def image_and_disks(codec):
    data = codec.random_image(np.random.default_rng(77))
    return data, codec.encode_image(data)


class TestLayout:
    @pytest.mark.parametrize("n_stripes", [1, 3, 5, 12])
    def test_rotation_convention(self, rdp5, n_stripes):
        """Role ``l`` of stripe ``s`` sits on disk ``(l + s) % n``, in the
        placement and in the encoded bytes, also for fewer stripes than
        disks and for a stripe count that is not a multiple of them."""
        codec = ArrayImageCodec(rdp5, element_size=8, n_stripes=n_stripes)
        lay = rdp5.layout
        n, k = lay.n_disks, lay.k_rows
        data = codec.random_image(np.random.default_rng(n_stripes))
        disks = codec.encode_image(data)
        chunks = data.reshape(n_stripes, lay.n_data_elements, 8)
        for s in range(n_stripes):
            stripe = codec.codec.encode(chunks[s])
            for role in range(n):
                assert codec.placement.disk_of_role(s, role) == (role + s) % n
                assert np.array_equal(
                    disks[(role + s) % n, s * k : (s + 1) * k],
                    stripe[role * k : (role + 1) * k],
                )

    def test_rotation_roundtrip(self, codec):
        lay = codec.code.layout
        for phys in range(lay.n_disks):
            stripes, roles = codec.placement.roles_of_disk(phys)
            assert stripes.tolist() == list(range(codec.n_stripes))
            for s, role in zip(stripes, roles):
                assert codec.placement.disk_of_role(s, role) == phys

    def test_full_stack_covers_all_roles(self, codec):
        """Across one stack, each physical disk plays every logical role."""
        lay = codec.code.layout
        for phys in range(lay.n_disks):
            stripes, roles = codec.placement.roles_of_disk(phys)
            assert set(roles[stripes < lay.n_disks].tolist()) == set(
                range(lay.n_disks)
            )

    def test_bad_stripe_count(self, rdp5):
        with pytest.raises(ValueError):
            ArrayImageCodec(rdp5, n_stripes=0)


class TestEncodeDecode:
    def test_roundtrip(self, codec, image_and_disks):
        data, disks = image_and_disks
        assert np.array_equal(codec.decode_image(disks), data)

    def test_disk_shapes(self, codec, image_and_disks):
        _, disks = image_and_disks
        lay = codec.code.layout
        assert disks.shape == (
            lay.n_disks,
            codec.n_stripes * lay.k_rows,
            codec.element_size,
        )

    def test_bad_buffer_rejected(self, codec):
        with pytest.raises(ValueError, match="flat buffer"):
            codec.encode_image(np.zeros(10, dtype=np.uint8))

    def test_each_logical_stripe_is_codeword(self, codec, image_and_disks):
        _, disks = image_and_disks
        for stripe in codec.logical_stripes(disks, range(codec.n_stripes)):
            assert codec.codec.check_stripe(stripe)


class TestRecovery:
    @pytest.mark.parametrize("failed", [0, 3, 5])  # data and parity positions
    def test_rebuild_any_physical_disk(self, codec, image_and_disks, failed):
        _, disks = image_and_disks
        assert codec.verify_recovery(disks, failed)

    def test_out_of_range(self, codec, image_and_disks):
        _, disks = image_and_disks
        with pytest.raises(IndexError):
            codec.recover_disk(disks, 99)

    def test_read_counts_balanced_for_u(self, rdp5, image_and_disks):
        """Over a full stack, U-schemes spread physical reads evenly."""
        _, disks = image_and_disks
        codec = ArrayImageCodec(rdp5, element_size=16, n_stripes=rdp5.layout.n_disks)
        planner = RecoveryPlanner(rdp5, algorithm="u", depth=1)
        result = codec.recover_disk(disks, 0, planner)
        reads = [c for d, c in enumerate(result["reads_per_disk"]) if d != 0]
        # every surviving disk participates; spread within a modest factor
        assert min(reads) > 0
        assert max(reads) <= 2 * min(reads)

    def test_khan_vs_u_total_reads(self, rdp5, image_and_disks):
        """Over a full stack the rotation equalises per-physical-disk totals
        for any scheme family (each disk plays every role once), so the
        load-balance benefit lives *within* stripes, not in the aggregate:
        the aggregate only reflects total read volume."""
        _, disks = image_and_disks
        codec = ArrayImageCodec(rdp5, element_size=16, n_stripes=rdp5.layout.n_disks)
        khan = codec.recover_disk(disks, 0, RecoveryPlanner(rdp5, "khan", depth=1))
        u = codec.recover_disk(disks, 0, RecoveryPlanner(rdp5, "u", depth=1))
        assert sum(u["reads_per_disk"]) >= sum(khan["reads_per_disk"])
        # rotation equalises: surviving disks differ by at most the per-role
        # variation of a single stripe
        survivors = [c for d, c in enumerate(u["reads_per_disk"]) if d != 0]
        assert max(survivors) - min(survivors) <= rdp5.layout.k_rows

    def test_other_codes(self):
        for code in (EvenOddCode(5), StarCode(5)):
            codec = ArrayImageCodec(code, element_size=8, n_stripes=4)
            data = codec.random_image(np.random.default_rng(9))
            disks = codec.encode_image(data)
            assert codec.verify_recovery(disks, 1)
