"""Scheme execution: rebuild failed elements from surviving bytes.

A :class:`~repro.recovery.scheme.RecoveryScheme` lists one calculation
equation per failed element, in recovery order.  Executing it is pure XOR:
the failed element equals the XOR of every *other* member of its equation —
surviving elements read from disk plus failed elements recovered by earlier
equations (the iteration of Greenan et al. [10], at zero additional read
cost).

:func:`execute_scheme` is the scalar reference: one stripe, one element at
a time.  Every production path runs the compiled
:meth:`~repro.codec.batch.BatchReconstructor.recover_batch_into` instead,
and the identity suites pin it to this function byte for byte.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.recovery.scheme import RecoveryScheme


def execute_scheme(scheme: RecoveryScheme, stripe: np.ndarray) -> Dict[int, np.ndarray]:
    """Rebuild the failed elements of one stripe.

    Parameters
    ----------
    scheme:
        The recovery plan.  A plan whose slot uses a failed element no
        earlier slot recovers raises :class:`ValueError`
        (:meth:`~repro.recovery.scheme.RecoveryScheme.check_order`).
    stripe:
        Full stripe array ``(n_elements, element_size)``.  Failed elements'
        rows are treated as unreadable — their stored content is never
        touched, so callers may pass the intact pre-failure stripe and use
        the result for byte-exact verification.

    Returns
    -------
    dict mapping failed eid -> recovered element bytes.
    """
    lay = scheme.layout
    if stripe.shape[0] != lay.n_elements:
        raise ValueError(
            f"stripe has {stripe.shape[0]} elements, layout needs {lay.n_elements}"
        )
    failed_mask = scheme.failed_mask
    recovered: Dict[int, np.ndarray] = {}
    for f, eq in zip(scheme.failed_eids, scheme.equations):
        members = eq & ~(1 << f)
        acc = np.zeros(stripe.shape[1], dtype=np.uint8)
        m = members
        while m:
            low = m & -m
            eid = low.bit_length() - 1
            m ^= low
            if (failed_mask >> eid) & 1:
                if eid not in recovered:
                    scheme.check_order()  # raises, naming this slot
                source = recovered[eid]
            else:
                source = stripe[eid]
            np.bitwise_xor(acc, source, out=acc)
        recovered[f] = acc
    return recovered
