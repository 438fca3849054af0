#!/usr/bin/env python
"""Quickstart: generate, inspect, execute and time recovery schemes.

Reproduces the paper's Figure 1 setting — RDP with 6 data + 2 parity disks
(p = 7), first data disk failed — and walks the full pipeline:

1. build the code and the four recovery schemes (naive / Khan / C / U);
2. print their read pictures and load statistics;
3. execute the U-Scheme on random bytes and verify the rebuilt disk;
4. time all schemes on the simulated 16 MB-element SAS array.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    SAVVIO_10K3,
    StripeCodec,
    make_code,
    simulate_stack_recovery,
)
from repro.codec import execute_scheme
from repro.recovery import c_scheme, khan_scheme, naive_scheme, u_scheme


def main() -> None:
    # -- 1. the Figure 1 setting -----------------------------------------
    code = make_code("rdp", 8)  # 6 data + 2 parity disks, p = 7
    print(code.describe())
    failed_disk = 0

    schemes = {
        "naive": naive_scheme(code, failed_disk),
        "khan": khan_scheme(code, failed_disk),
        "c": c_scheme(code, failed_disk),
        "u": u_scheme(code, failed_disk),
    }

    # -- 2. inspect ------------------------------------------------------
    print("\nPer-scheme read statistics (X = failed, R = read):")
    for name, scheme in schemes.items():
        print(f"\n--- {name}-scheme: total={scheme.total_reads} "
              f"max_load={scheme.max_load} loads={scheme.loads}")
        print(scheme.render())

    # -- 3. execute on real bytes ----------------------------------------
    codec = StripeCodec(code, element_size=4096)
    stripe = codec.encode(codec.random_data(np.random.default_rng(42)))
    recovered = execute_scheme(schemes["u"], stripe)
    for eid, data in recovered.items():
        assert np.array_equal(data, stripe[eid]), "recovered bytes differ!"
    print("\nU-scheme recovered the failed disk byte-exactly "
          f"({schemes['u'].total_reads} elements read).")

    # -- 4. simulated recovery speed (paper Figure 4 metric) -------------
    print(f"\nSimulated recovery speed ({SAVVIO_10K3.element_mb:.0f} MB "
          "elements, Savvio 10K.3 timing):")
    for name, scheme in schemes.items():
        result = simulate_stack_recovery(code, [scheme], stacks=20)
        print(f"  {name:5s}: {result.speed_mb_s:6.1f} MB/s "
              f"({result.recovery_time_s:6.1f} s for "
              f"{result.data_recovered_mb / 1024:.1f} GB)")


if __name__ == "__main__":
    main()
