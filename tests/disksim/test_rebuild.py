"""Tests for the pipelined rebuild (write-back) model."""

import shutil
from pathlib import Path

import pytest

from repro.analysis import FIGURE_ALGORITHMS, FIGURE_DISK_RANGE, SchemeCache
from repro.codes import RdpCode, make_code
from repro.codes.registry import PAPER_FIGURE_FAMILIES
from repro.disksim import DiskParams, simulate_stack_recovery
from repro.disksim.rebuild import simulate_rebuild
from repro.recovery import RecoveryPlanner

#: the scheme store the figure benches replay
COMMITTED_STORE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / ".scheme_cache" / "plans.json"
)


@pytest.fixture(scope="module")
def rdp7_schemes():
    code = RdpCode(7)
    return code, RecoveryPlanner(code, "u", depth=1).all_data_disk_schemes()


class TestRebuild:
    def test_reads_are_critical_on_paper_drives(self, rdp7_schemes):
        """Savvio 10K.3 writes 2.3x faster than it reads, so the paper's
        'recovery time excludes write-back' assumption holds: the rebuild
        is read-limited and the write-back overhead is small."""
        code, schemes = rdp7_schemes
        result = simulate_rebuild(code, schemes)
        assert result.read_is_critical
        assert result.write_back_overhead_percent < 10.0

    def test_slow_spare_flips_criticality(self, rdp7_schemes):
        code, schemes = rdp7_schemes
        slow_spare = DiskParams(seq_write_bw_mb=5.0)
        result = simulate_rebuild(code, schemes, spare=slow_spare)
        assert not result.read_is_critical
        assert result.makespan_s > result.read_limited_s

    def test_makespan_bounds(self, rdp7_schemes):
        """Pipelined makespan is between either stage alone and their sum."""
        code, schemes = rdp7_schemes
        r = simulate_rebuild(code, schemes, stacks=5)
        assert r.makespan_s >= max(r.read_limited_s, r.write_limited_s)
        assert r.makespan_s <= r.read_limited_s + r.write_limited_s + 1.0

    def test_stacks_scale_linearly(self, rdp7_schemes):
        code, schemes = rdp7_schemes
        one = simulate_rebuild(code, schemes, stacks=1)
        ten = simulate_rebuild(code, schemes, stacks=10)
        assert ten.read_limited_s == pytest.approx(10 * one.read_limited_s)

    def test_empty_schemes_rejected(self, rdp7_schemes):
        code, _ = rdp7_schemes
        with pytest.raises(ValueError):
            simulate_rebuild(code, [])

    def test_balanced_schemes_rebuild_faster(self):
        code = RdpCode(7)
        naive = RecoveryPlanner(code, "naive").all_data_disk_schemes()
        u = RecoveryPlanner(code, "u", depth=1).all_data_disk_schemes()
        assert (
            simulate_rebuild(code, u).makespan_s
            < simulate_rebuild(code, naive).makespan_s
        )

    def test_read_side_is_the_stack_recovery_time(self, tmp_path):
        """On every paper-grid point the rebuild's read-limited time is the
        stack recovery time, exactly: both come from one stack walk."""
        # a copy, so the replay never writes into the committed store
        shutil.copy(COMMITTED_STORE, tmp_path / "plans.json")
        cache = SchemeCache(depth=1, cache_dir=tmp_path)
        points = 0
        for family in PAPER_FIGURE_FAMILIES:
            for n_disks in FIGURE_DISK_RANGE:
                code = make_code(family, n_disks)
                for alg in FIGURE_ALGORITHMS:
                    schemes = cache.schemes(family, n_disks, alg)
                    stack = simulate_stack_recovery(code, schemes, stacks=3)
                    rebuild = simulate_rebuild(code, schemes, stacks=3)
                    assert rebuild.read_limited_s == stack.recovery_time_s
                points += 1
        assert points == 50
        assert cache.store.misses == 0
