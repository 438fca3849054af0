#!/usr/bin/env python
"""What a 20% faster recovery buys: the window of vulnerability.

The paper's motivation (Sec. I): recovery time bounds the window in which a
second (or third) failure can destroy data.  This study chains the whole
library — scheme generation, simulated recovery speed, rebuild duration,
and a Monte-Carlo failure/repair timeline — to express the U-Scheme's gain
as a reduction in ten-year data-loss probability.

Run:  python examples/reliability_study.py
"""

from repro import make_code, simulate_stack_recovery
from repro.disksim import recovery_hours_for_disk
from repro.fleet import simulate_fleet, uniform_windows
from repro.recovery import RecoveryPlanner

DISK_GB = 300.0          # the paper's drives
MTTF_HOURS = 20_000.0    # stressed (real drives are ~1M h) so the Monte-
STRESS = 50.0            # Carlo signal is visible with modest trial counts
TRIALS = 1200


def main() -> None:
    code = make_code("rdp", 12)
    print(code.describe())
    print(f"{DISK_GB:.0f} GB disks, stressed MTTF {MTTF_HOURS:.0f} h, "
          f"window x{STRESS:.0f}, {TRIALS} ten-year missions\n")

    print(f"{'scheme':6s} {'speed':>9s} {'rebuild':>9s} {'P(loss)':>9s} "
          f"{'degraded':>9s} {'nines':>6s}")
    for alg in ("naive", "khan", "c", "u"):
        schemes = RecoveryPlanner(code, alg, depth=1).all_data_disk_schemes()
        speed = simulate_stack_recovery(code, schemes).speed_mb_s
        hours = recovery_hours_for_disk(DISK_GB, speed)
        rel = simulate_fleet(
            uniform_windows(code.layout.n_disks, hours * STRESS),
            tolerance=code.fault_tolerance, disk_mttf_hours=MTTF_HOURS,
            trials=TRIALS, seed=4,
        )
        nines = rel.nines()
        print(f"{alg:6s} {speed:6.1f}MB/s {hours:7.2f} h "
              f"{rel.loss_probability:9.4f} "
              f"{rel.mean_degraded_fraction*100:8.2f}% "
              f"{nines if nines != float('inf') else 99:6.2f}")

    print("\nlower recovery time -> shorter windows -> fewer losses; the "
          "load-balanced schemes turn their speedup directly into nines")


if __name__ == "__main__":
    main()
