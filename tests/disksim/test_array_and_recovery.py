"""Tests for the array model and stack-recovery simulation."""

import pytest

from repro.codes import RdpCode, make_code
from repro.disksim import (
    SAVVIO_10K3,
    DiskArraySimulator,
    simulate_stack_recovery,
)
from repro.placement import FlatPlacement
from repro.recovery import RecoveryPlanner, naive_scheme, u_scheme


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


class TestArraySimulator:
    def test_disk_count_validation(self):
        with pytest.raises(ValueError):
            DiskArraySimulator(0)
        with pytest.raises(ValueError):
            DiskArraySimulator(3, [SAVVIO_10K3] * 2)

    def test_rows_by_disk(self, rdp7):
        lay = rdp7.layout
        sim = DiskArraySimulator(lay.n_disks)
        mask = lay.element_mask([(1, 0), (1, 3), (4, 2)])
        by_disk = sim.rows_by_disk(lay, mask)
        assert by_disk == {1: [0, 3], 4: [2]}

    def test_layout_mismatch(self, rdp7):
        sim = DiskArraySimulator(5)
        with pytest.raises(ValueError, match="disks"):
            sim.stripe_recovery_time(rdp7.layout, 1)

    def test_stripe_time_is_max_disk_time(self, rdp7):
        lay = rdp7.layout
        sim = DiskArraySimulator(lay.n_disks)
        scheme = u_scheme(rdp7, 0)
        times = sim.per_disk_read_times(lay, scheme.read_mask)
        assert sim.stripe_recovery_time(lay, scheme.read_mask) == max(times)

    def test_heterogeneous_disks(self, rdp7):
        lay = rdp7.layout
        slow = SAVVIO_10K3.scaled(0.5)
        params = [SAVVIO_10K3] * (lay.n_disks - 1) + [slow]
        sim = DiskArraySimulator(lay.n_disks, params)
        mask = lay.element_mask([(lay.n_disks - 1, 0)])
        fast_mask = lay.element_mask([(0, 0)])
        assert sim.stripe_recovery_time(lay, mask) > sim.stripe_recovery_time(
            lay, fast_mask
        )


class TestFaultPlanTiming:
    def test_slow_disk_inflates_its_read_time(self, rdp7):
        from repro.faults import FaultPlan, SlowDisk

        lay = rdp7.layout
        clean = DiskArraySimulator(lay.n_disks)
        sim = DiskArraySimulator(
            lay.n_disks, fault_plan=FaultPlan([SlowDisk(2, 3.0)])
        )
        mask = lay.element_mask([(2, 0), (3, 0)])
        t_clean = clean.per_disk_read_times(lay, mask)
        t_slow = sim.per_disk_read_times(lay, mask)
        assert t_slow[2] == pytest.approx(3.0 * t_clean[2])
        assert t_slow[3] == pytest.approx(t_clean[3])

    def test_lse_adds_failed_attempt_cost(self, rdp7):
        from repro.faults import FaultPlan, LatentSectorError

        lay = rdp7.layout
        plan = FaultPlan([LatentSectorError(1, 0, stripe=0)])
        clean = DiskArraySimulator(lay.n_disks)
        sim = DiskArraySimulator(lay.n_disks, fault_plan=plan)
        mask = lay.element_mask([(1, 0)])
        # the faulted stripe pays a retry penalty; other stripes do not
        assert sim.stripe_recovery_time(
            lay, mask, stripe=0
        ) > clean.stripe_recovery_time(lay, mask, stripe=0)
        assert sim.stripe_recovery_time(lay, mask, stripe=1) == pytest.approx(
            clean.stripe_recovery_time(lay, mask, stripe=1)
        )


class TestStackRecovery:
    def test_balanced_scheme_recovers_faster(self, rdp7):
        schemes_u = RecoveryPlanner(rdp7, "u").all_data_disk_schemes()
        schemes_naive = RecoveryPlanner(rdp7, "naive").all_data_disk_schemes()
        r_u = simulate_stack_recovery(rdp7, schemes_u)
        r_naive = simulate_stack_recovery(rdp7, schemes_naive)
        assert r_u.speed_mb_s > r_naive.speed_mb_s
        assert r_u.data_recovered_mb == r_naive.data_recovered_mb

    def test_stack_scaling_preserves_speed(self, rdp7):
        schemes = RecoveryPlanner(rdp7, "khan").all_data_disk_schemes()
        r1 = simulate_stack_recovery(rdp7, schemes, stacks=1)
        r20 = simulate_stack_recovery(rdp7, schemes, stacks=20)
        assert r20.speed_mb_s == pytest.approx(r1.speed_mb_s)
        assert r20.recovery_time_s == pytest.approx(20 * r1.recovery_time_s)

    def test_input_validation(self, rdp7):
        with pytest.raises(ValueError):
            simulate_stack_recovery(rdp7, [])
        schemes = [naive_scheme(rdp7, 0)]
        with pytest.raises(ValueError):
            simulate_stack_recovery(rdp7, schemes, stacks=0)

    def test_data_recovered_accounting(self, rdp7):
        schemes = RecoveryPlanner(rdp7, "naive").all_data_disk_schemes()
        r = simulate_stack_recovery(rdp7, schemes, stacks=2)
        lay = rdp7.layout
        expect = 2 * lay.n_data * lay.k_rows * SAVVIO_10K3.element_mb
        assert r.data_recovered_mb == pytest.approx(expect)

    def test_compare_schemes_speed_ordering(self, rdp7):
        by_alg = {
            alg: RecoveryPlanner(rdp7, alg).all_data_disk_schemes()
            for alg in ("naive", "khan", "u")
        }
        speeds = {
            alg: simulate_stack_recovery(rdp7, schemes).speed_mb_s
            for alg, schemes in by_alg.items()
        }
        assert speeds["u"] >= speeds["khan"] >= speeds["naive"]

    def test_paper_speed_magnitude(self):
        """Figure 4 sanity: simulated speeds land in tens of MB/s."""
        code = make_code("evenodd", 10)
        schemes = RecoveryPlanner(code, "khan").all_data_disk_schemes()
        speed = simulate_stack_recovery(code, schemes).speed_mb_s
        assert 20.0 < speed < 200.0


class TestRotationVsFlat:
    """Sec. VI-A: rotated stripes give every failed disk one stack over all
    logical situations; flat placement freezes disk *d* into situation *d*
    for a whole rotation (``n_disks`` stripes)."""

    @pytest.fixture(scope="class")
    def rotation(self):
        # shortened RDP: logical failure situations genuinely differ in cost
        code = make_code("rdp", 7)
        n = code.layout.n_disks
        schemes = RecoveryPlanner(code, "u", depth=1).all_disk_schemes()
        stack = simulate_stack_recovery(code, schemes, stacks=1)
        flat = [
            simulate_stack_recovery(code, [scheme], stacks=n).recovery_time_s
            for scheme in schemes
        ]
        return code, schemes, stack.recovery_time_s, flat

    def test_logical_role_offsets_by_rotation(self):
        """Each stripe rotates the array by one more disk: the role a
        physical disk plays drops by one (mod ``n``) from stripe to stripe."""
        n = 6
        stack = FlatPlacement(n, 2 * n, n)
        for phys in range(n):
            stripes, roles = stack.roles_of_disk(phys)
            assert stripes.tolist() == list(range(2 * n))
            assert ((roles[1:] - roles[:-1]) % n == n - 1).all()

    def test_rotation_equalizes(self, rotation):
        """Each physical disk, walked through one rotation, recovers in the
        one-stack time."""
        code, schemes, stack_s, _ = rotation
        n = code.layout.n_disks
        stack = FlatPlacement(n, n, n)
        for phys in range(n):
            walk = [schemes[role] for role in stack.roles_of_disk(phys)[1]]
            r = simulate_stack_recovery(code, walk, stacks=1)
            assert r.recovery_time_s == pytest.approx(stack_s)

    def test_flat_exposes_situation_differences(self, rotation):
        """Without rotation, per-disk recovery times differ whenever the
        logical situations do."""
        *_, flat = rotation
        assert max(flat) / min(flat) > 1.0

    def test_rotated_mean_equals_flat_mean(self, rotation):
        """Rotation redistributes, it does not create or destroy work."""
        *_, stack_s, flat = rotation
        assert stack_s == pytest.approx(sum(flat) / len(flat))
