"""Tests for analysis metrics and the stack layout they average over."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    average_parallel_read_accesses,
    improvement_percent,
    load_balance_ratio,
    parallel_read_accesses,
    total_read_elements,
)
from repro.codes import RdpCode
from repro.placement import FlatPlacement
from repro.recovery import RecoveryPlanner, naive_scheme, u_scheme


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


class TestMetrics:
    def test_parallel_read_accesses_is_maxload(self, rdp7):
        s = u_scheme(rdp7, 0)
        assert parallel_read_accesses(s) == s.max_load

    def test_average(self, rdp7):
        schemes = RecoveryPlanner(rdp7, "u").all_data_disk_schemes()
        avg = average_parallel_read_accesses(schemes)
        assert avg == pytest.approx(sum(s.max_load for s in schemes) / len(schemes))

    def test_average_empty_raises(self):
        with pytest.raises(ValueError):
            average_parallel_read_accesses([])

    def test_improvement_percent(self):
        assert improvement_percent(10, 8) == pytest.approx(20.0)
        assert improvement_percent(10, 12) == pytest.approx(-20.0)
        with pytest.raises(ValueError):
            improvement_percent(0, 1)

    def test_load_balance_ratio_bounds(self, rdp7):
        for scheme in (naive_scheme(rdp7, 0), u_scheme(rdp7, 0)):
            r = load_balance_ratio(scheme)
            assert 0 < r <= 1.0

    def test_balanced_scheme_has_higher_ratio(self, rdp7):
        """U spreads its (minimal) reads more evenly than Khan's arbitrary
        tie-break.  (The naive scheme is perfectly balanced but reads far
        more — balance alone says nothing about volume.)"""
        from repro.recovery import khan_scheme

        khan = khan_scheme(rdp7, 0, depth=1)
        balanced = u_scheme(rdp7, 0, depth=1)
        assert load_balance_ratio(balanced) >= load_balance_ratio(khan) - 1e-9

    def test_total_read_elements(self, rdp7):
        schemes = RecoveryPlanner(rdp7, "khan").all_data_disk_schemes()
        assert total_read_elements(schemes) == sum(s.total_reads for s in schemes)


class TestStack:
    """A stack is the rotated array's layout: ``FlatPlacement(n, n, n)``,
    one stripe per rotation."""

    def test_rotation_roundtrip(self):
        n = 8
        stack = FlatPlacement(n, n, n)
        for r in range(n):
            for ld in range(n):
                p = int(stack.disk_of_role(r, ld))
                stripes, roles = stack.roles_of_disk(p)
                assert roles[stripes == r].tolist() == [ld]

    def test_schedule_is_latin_square(self):
        n = 5
        sched = FlatPlacement(n, n, n).disk_of_role(
            np.arange(n)[:, None], np.arange(n)[None, :]
        )
        assert sched.shape == (n, n)
        for row in sched.tolist():
            assert sorted(row) == list(range(n))
        for col in sched.T.tolist():
            assert sorted(col) == list(range(n))

    def test_each_physical_plays_each_role_once(self):
        """The equal-occurrence property the paper's averaging relies on."""
        n = 6
        stack = FlatPlacement(n, n, n)
        for phys in range(n):
            _, roles = stack.roles_of_disk(phys)
            assert sorted(roles.tolist()) == list(range(n))

    def test_bounds_checked(self):
        stack = FlatPlacement(5, 5, 5)
        with pytest.raises(IndexError):
            stack.roles_of_disk(5)
        with pytest.raises(IndexError):
            stack.roles_of_disk(-1)
        with pytest.raises(IndexError):
            stack.disk_of_role(5, 0)
