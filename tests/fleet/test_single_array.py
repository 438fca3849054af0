"""One array's window of vulnerability (paper Sec. I) on simulate_fleet.

``uniform_windows`` with no criticality is the single-array model: every
disk rebuilds in the same window, and any ``tolerance + 1`` disks down at
once lose data.  The window itself comes from a simulated recovery speed
through ``recovery_hours_for_disk``.
"""

import pytest

from repro.codes import Raid4Code, RdpCode, StarCode
from repro.disksim import recovery_hours_for_disk
from repro.fleet import simulate_fleet, uniform_windows


def _array(code, hours, **kwargs):
    return simulate_fleet(
        uniform_windows(code.layout.n_disks, hours),
        tolerance=code.fault_tolerance,
        **kwargs,
    )


class TestRecoveryHours:
    def test_conversion(self):
        # 300 GB at 56.1 MB/s is ~1.52 hours
        hours = recovery_hours_for_disk(300.0, 56.1)
        assert hours == pytest.approx(300 * 1024 / 56.1 / 3600, rel=1e-6)

    def test_invalid_speed(self):
        with pytest.raises(ValueError, match="positive"):
            recovery_hours_for_disk(300, 0)


class TestSingleArray:
    def test_window_validation(self):
        code = RdpCode(5)
        with pytest.raises(ValueError):
            uniform_windows(code.layout.n_disks, -1.0)
        with pytest.raises(ValueError):
            _array(code, 1.0, trials=0)

    def test_instant_repair_never_loses(self):
        """Instant repair means at most one disk is ever down."""
        r = _array(RdpCode(5), 0.0, disk_mttf_hours=5000.0, trials=300,
                   seed=1)
        assert r.loss_probability == 0.0
        assert r.mean_degraded_fraction == pytest.approx(0.0, abs=1e-9)

    def test_loss_free_nines(self):
        r = _array(RdpCode(5), 0.0, trials=10, seed=1)
        assert r.nines() == float("inf")

    def test_zero_window_is_explicitly_allowed(self):
        r = _array(RdpCode(5), 0.0, trials=5, seed=0)
        assert r.trials == 5

    def test_faster_recovery_reduces_loss(self):
        """The paper's whole argument: shorter windows, fewer losses and
        less degraded time.  An exaggerated regime (unreliable disks, long
        rebuilds) keeps the Monte-Carlo signal strong with few trials."""
        code = Raid4Code(6, 4)  # tolerates one failure
        kwargs = dict(disk_mttf_hours=50_000.0, mission_hours=50_000.0,
                      trials=800, seed=7)
        slow = _array(code, 400.0, **kwargs)
        fast = _array(code, 100.0, **kwargs)
        assert 0.0 < fast.loss_probability < slow.loss_probability < 1.0
        assert fast.mean_degraded_fraction < slow.mean_degraded_fraction

    def test_higher_tolerance_survives_better(self):
        rdp = RdpCode(5)    # 2-fault tolerant, 6 disks
        star = StarCode(5)  # 3-fault tolerant, 8 disks
        kwargs = dict(disk_mttf_hours=3000.0, trials=600, seed=3)
        r2 = _array(rdp, 300.0, **kwargs)
        r3 = _array(star, 300.0, **kwargs)
        assert r3.loss_probability <= r2.loss_probability

    def test_failures_accumulate(self):
        r = _array(RdpCode(5), 1.0, disk_mttf_hours=2000.0,
                   mission_hours=50000.0, trials=50, seed=9)
        assert r.mean_failures_per_mission > 1.0

    def test_lost_missions_still_count_degraded_time(self):
        """A mission lost to a failure burst was degraded up to the loss;
        that interval counts even when every trial loses data."""
        r = _array(RdpCode(5), 5000.0, disk_mttf_hours=200.0,
                   mission_hours=50000.0, trials=40, seed=4)
        assert r.loss_probability == 1.0
        assert r.mean_degraded_fraction > 0.0

    def test_validation_messages(self):
        code = RdpCode(5)
        with pytest.raises(ValueError, match=">= 0"):
            uniform_windows(code.layout.n_disks, -0.5)
        with pytest.raises(ValueError, match="positive"):
            _array(code, 1.0, disk_mttf_hours=0.0)
        with pytest.raises(ValueError, match="positive"):
            _array(code, 1.0, mission_hours=-10.0)
