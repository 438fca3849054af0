"""Extension benches: full rebuild pipeline and reliability translation.

Two claims the paper makes in passing become measurable here:

* Sec. I: recovery time may exclude write-back because the spare's write
  bandwidth (131 MB/s) exceeds the per-disk read bandwidth — the rebuild is
  read-limited (``bench: rebuild``);
* Sec. I: faster recovery shrinks the window of vulnerability — the
  Monte-Carlo turns the U-Scheme's speedup into a data-loss-probability
  reduction (``bench: reliability``).
"""

import pytest
from conftest import STACKS, emit

from repro.codes import make_code
from repro.disksim import recovery_hours_for_disk, simulate_stack_recovery
from repro.disksim.rebuild import simulate_rebuild
from repro.fleet import simulate_fleet, uniform_windows
from repro.recovery import RecoveryPlanner

FAMILY, N_DISKS = "rdp", 12


@pytest.fixture(scope="module")
def schemes_by_alg():
    code = make_code(FAMILY, N_DISKS)
    return code, {
        alg: RecoveryPlanner(code, alg, depth=1).all_data_disk_schemes()
        for alg in ("naive", "khan", "c", "u")
    }


def test_rebuild_pipeline(benchmark, schemes_by_alg, results_dir):
    code, by_alg = schemes_by_alg
    result = benchmark(simulate_rebuild, code, by_alg["u"], stacks=STACKS)
    assert result.read_is_critical

    lines = [f"Rebuild pipeline ({FAMILY}@{N_DISKS}, {STACKS} stacks, hot spare)"]
    for alg, schemes in by_alg.items():
        r = simulate_rebuild(code, schemes, stacks=STACKS)
        lines.append(
            f"  {alg:5s}: reads {r.read_limited_s:7.1f} s, "
            f"writes {r.write_limited_s:7.1f} s, makespan {r.makespan_s:7.1f} s "
            f"(write-back overhead {r.write_back_overhead_percent:4.1f}%)"
        )
    lines.append(
        "reads are the critical path on the paper's drives, validating the "
        "'recovery time excludes write-back' metric (Sec. I)"
    )
    emit(results_dir, "ext_rebuild", "\n".join(lines))


def test_reliability_translation(benchmark, schemes_by_alg, results_dir):
    code, by_alg = schemes_by_alg

    def run():
        rows = []
        for alg in ("khan", "u"):
            speed = simulate_stack_recovery(
                code, by_alg[alg], stacks=STACKS
            ).speed_mb_s
            hours = recovery_hours_for_disk(300.0, speed)
            rel = simulate_fleet(
                # stressed window so the MC signal is strong
                uniform_windows(code.layout.n_disks, hours * 50),
                tolerance=code.fault_tolerance,
                disk_mttf_hours=20_000.0,
                trials=400,
                seed=29,
            )
            rows.append((alg, speed, hours, rel))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Window-of-vulnerability translation ({FAMILY}@{N_DISKS}, "
        "300 GB disks, stressed MTTF)"
    ]
    for alg, speed, hours, rel in rows:
        lines.append(
            f"  {alg:5s}: {speed:6.1f} MB/s -> {hours:5.2f} h rebuild; "
            f"P(loss) {rel.loss_probability:.4f}, "
            f"degraded {rel.mean_degraded_fraction * 100:.2f}% of mission"
        )
    emit(results_dir, "ext_reliability", "\n".join(lines))

    (k_alg, _, _, k_rel), (u_alg, _, _, u_rel) = rows
    assert u_rel.loss_probability <= k_rel.loss_probability
