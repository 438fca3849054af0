#!/usr/bin/env python
"""Bring your own erasure code — the paper's "any erasure code" promise.

A code is just its calculation equations.  This example defines a slope-3
"weave" RAID-6 from scratch (row parity + slope-3 lines with an EVENODD
style adjuster — not one of the library's built-ins), and immediately gets
everything the library offers: load-balanced recovery schemes, byte-exact
reconstruction, and simulated recovery speed — no library changes required.

Note the construction detail the library forces you to get right: a second
parity made of *pure permutation* lines (no adjuster) is never
2-fault-tolerant — sums of circulant permutations are singular — and the
constructor's exhaustive MDS check would refuse it.

Run:  python examples/custom_code.py
"""

from typing import List

import numpy as np

from repro import StripeCodec, simulate_stack_recovery
from repro.codec import execute_scheme
from repro.codes.base import ErasureCode
from repro.codes.layout import CodeLayout
from repro.recovery import khan_scheme, u_scheme


class WeavedParityCode(ErasureCode):
    """RAID-6 with row parity P and a slope-3 weave parity Q.

    Data cell ``(r, c)`` lies on weave line ``(r + 3c) mod p``; line
    ``p - 1`` is the adjuster folded into every Q element (the EVENODD
    trick, at a slope the library does not ship).  The constructor verifies
    2-fault tolerance exhaustively and refuses invalid geometry, so you
    cannot accidentally deploy a non-code.
    """

    name = "weaved"
    SLOPE = 3

    def __init__(self, p: int, n_data: int) -> None:
        self.p = p
        super().__init__(CodeLayout(n_data, 2, p - 1), fault_tolerance=2)
        if not self.verify_fault_tolerance():
            raise ValueError(
                f"slope-{self.SLOPE} weave is not 2-fault-tolerant for "
                f"p={p}, n_data={n_data}"
            )

    def _line(self, idx: int) -> int:
        lay = self.layout
        mask = 0
        for r in range(lay.k_rows):
            for c in range(lay.n_data):
                if (r + self.SLOPE * c) % self.p == idx:
                    mask |= 1 << lay.eid(c, r)
        return mask

    def _build_parity_equations(self) -> List[int]:
        lay = self.layout
        k = lay.k_rows
        p_disk, q_disk = lay.n_data, lay.n_data + 1
        eqs = []
        for r in range(k):
            eq = 1 << lay.eid(p_disk, r)
            for d in range(lay.n_data):
                eq |= 1 << lay.eid(d, r)
            eqs.append(eq)
        adjuster = self._line(self.p - 1)
        for i in range(k):
            eqs.append((1 << lay.eid(q_disk, i)) | self._line(i) | adjuster)
        return eqs


def main() -> None:
    code = WeavedParityCode(p=7, n_data=6)
    print(code.describe())
    print(f"generator density: {code.density()} ones\n")

    khan = khan_scheme(code, 0)
    u = u_scheme(code, 0)
    print("recovery of disk 0:")
    print(f"  khan: {khan.summary()}")
    print(f"  u:    {u.summary()}")
    print(u.render())

    codec = StripeCodec(code, element_size=1024)
    stripe = codec.encode(codec.random_data(np.random.default_rng(1)))
    for eid, data in execute_scheme(u, stripe).items():
        assert np.array_equal(data, stripe[eid])
    print("\nbyte-exact recovery verified")

    for name, scheme in (("khan", khan), ("u", u)):
        speed = simulate_stack_recovery(code, [scheme]).speed_mb_s
        print(f"simulated recovery speed ({name}): {speed:.1f} MB/s")


if __name__ == "__main__":
    main()
