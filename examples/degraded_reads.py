#!/usr/bin/env python
"""Degraded reads: serving I/O for data on the dead disk.

Until the rebuild finishes, every read addressed to the failed disk must be
reconstructed on the fly.  This example plans per-row degraded-read schemes
for an EVENODD array, executes one against real bytes, and then replays
user traffic through the event-driven simulator with on-the-fly
reconstruction enabled — measuring the latency penalty of degraded mode.

Run:  python examples/degraded_reads.py
"""

import numpy as np

from repro import StripeCodec, make_code
from repro.codec import execute_scheme
from repro.disksim import EventDrivenArray, PoissonWorkload
from repro.recovery import (
    build_degraded_plans,
    degraded_read_scheme,
    u_scheme,
)


def main() -> None:
    code = make_code("evenodd", 9)  # 7 data + 2 parity
    lay = code.layout
    failed = 2
    print(code.describe())

    # -- plan and execute one degraded read -------------------------------
    plan = degraded_read_scheme(code, failed, rows=[1, 4])
    print(f"\ndegraded read of rows [1, 4] on failed disk {failed}: "
          f"{plan.total_reads} elements, max per-disk load {plan.max_load}")

    codec = StripeCodec(code, element_size=512)
    stripe = codec.encode(codec.random_data(np.random.default_rng(7)))
    out = execute_scheme(plan, stripe)
    for row in (1, 4):
        eid = lay.eid(failed, row)
        assert np.array_equal(out[eid], stripe[eid])
    print("reconstructed bytes verified against the original")

    # -- degraded service under recovery + user load ----------------------
    plans = build_degraded_plans(code, failed)
    recovery = [u_scheme(code, failed, depth=1)]
    workload = PoissonWorkload(6.0, lay.n_disks, lay.k_rows, seed=99)
    requests = workload.generate(duration_s=240.0)
    n_degraded = sum(1 for r in requests if r.disk == failed)

    res = EventDrivenArray(lay.n_disks).run_online_recovery(
        code,
        recovery,
        stripes=30,
        user_requests=requests,
        failed_disk=failed,
        degraded_plans=plans,
    )
    print("\nonline recovery with degraded service:")
    print(f"  {res.user_requests_served} user reads served "
          f"({n_degraded} reconstructed on the fly)")
    print(f"  mean latency {res.user_mean_latency_s*1000:.1f} ms, "
          f"p95 {res.user_p95_latency_s*1000:.1f} ms")
    print("  recovery of 30 stripes finished at "
          f"{res.recovery_finish_s:.1f} s")


if __name__ == "__main__":
    main()
