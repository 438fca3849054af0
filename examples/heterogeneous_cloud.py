#!/usr/bin/env python
"""Heterogeneous recovery (paper Sec. V-D): weighted U-Algorithm.

Cloud arrays mix disk generations: some spindles read twice as fast as
others.  The plain U-Algorithm balances *element counts*; the weighted
variant balances *read time*, shifting load away from slow disks.  This
example builds an EVENODD array where two disks are 2x slower, generates
uniform and weighted U-Schemes for a failed disk, and times both on the
heterogeneous simulated array.

Run:  python examples/heterogeneous_cloud.py
"""

from repro import SAVVIO_10K3, make_code, simulate_stack_recovery
from repro.recovery import scheme_for_mask


def main() -> None:
    code = make_code("evenodd", 10)  # 8 data + 2 parity
    lay = code.layout
    failed_disk = 0
    failed = lay.disk_mask(failed_disk)

    # disks 5 and 6 are an older, 2x slower generation
    slow_disks = {5, 6}
    speed = [0.5 if d in slow_disks else 1.0 for d in range(lay.n_disks)]
    disk_params = [SAVVIO_10K3.scaled(s) for s in speed]
    # read cost of one element on disk d is 1/speed
    weights = [1.0 / s for s in speed]

    uniform = scheme_for_mask(code, failed, "u")
    weighted = scheme_for_mask(code, failed, "u", weights=weights)

    print(code.describe())
    print(f"slow disks: {sorted(slow_disks)} (2x slower)\n")
    header = "  ".join(f"d{d}" for d in range(lay.n_disks))
    print(f"{'scheme':10s}  {header}   max_cost")
    for name, scheme in (("uniform-U", uniform), ("weighted-U", weighted)):
        loads = "  ".join(f"{load:2d}" for load in scheme.loads)
        print(f"{name:10s}  {loads}   {scheme.weighted_max_load(weights):6.1f}")

    print("\nSimulated recovery on the heterogeneous array:")
    for name, scheme in (("uniform-U", uniform), ("weighted-U", weighted)):
        result = simulate_stack_recovery(code, [scheme], params=disk_params)
        print(f"  {name:10s}: {result.speed_mb_s:6.1f} MB/s")

    speedup = (
        simulate_stack_recovery(code, [weighted], params=disk_params).speed_mb_s
        / simulate_stack_recovery(code, [uniform], params=disk_params).speed_mb_s
        - 1.0
    )
    print(f"\nweighted scheme is {speedup * 100:.1f}% faster on this array")


if __name__ == "__main__":
    main()
