"""Open-loop (trace-driven) request frontend for the serving engine.

The engine replays a request trace **open-loop**: every request has a
scheduled arrival instant and its latency is measured from that instant
to completion, so queueing delay under overload shows up in the
percentiles instead of vanishing into reduced offered load (a
closed-loop client simply offers less when the server slows down).

Traces are plain numpy arrays (arrival seconds, disk, row) built from the
existing :class:`~repro.disksim.workload.Request` generators via
:func:`trace_arrays`; :func:`partition_trace` splits one by stripe range
for the shards, so every shard replays exactly its slice of the
same global trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.disksim.workload import Request


def trace_arrays(
    requests: Sequence[Request],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arrival_s, disk, row)`` arrays for a request sequence.

    Arrivals are shifted so the first request fires at t=0 and sorted —
    an open-loop replay needs monotone schedule times.
    """
    if not requests:
        raise ValueError("trace needs at least one request")
    arr = np.asarray([r.arrival_s for r in requests], dtype=np.float64)
    disks = np.asarray([r.disk for r in requests], dtype=np.int64)
    rows = np.asarray([r.row for r in requests], dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    arr = arr[order] - arr[order[0]]
    return arr, disks[order], rows[order]


def shard_bounds(n_stripes: int, n_shards: int) -> np.ndarray:
    """Stripe-range boundaries: shard ``i`` owns ``[bounds[i], bounds[i+1])``.

    ``n_shards`` may exceed ``n_stripes``: the surplus shards come out
    with empty ranges (repeated bounds), which the replay loop, the
    latency board and the report merge all tolerate — an over-provisioned
    shard count degrades to idle workers, never to a crash.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_stripes < 1:
        raise ValueError(f"n_stripes must be >= 1, got {n_stripes}")
    return np.asarray(
        [i * n_stripes // n_shards for i in range(n_shards + 1)], dtype=np.int64
    )


def partition_trace(
    rows: np.ndarray,
    k_rows: int,
    n_stripes: int,
    n_shards: int,
    bounds: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Per-shard index arrays over one global trace, split by stripe range.

    Every request (any disk) is owned by the shard whose stripe range
    contains ``row // k_rows`` — requests stay in global arrival order
    within each shard because the input is already sorted.  ``bounds``
    overrides the even split (e.g. placement-group-aligned bounds from
    :meth:`repro.placement.PlacementMap.shard_bounds`); empty shards get
    empty index arrays.
    """
    if bounds is None:
        bounds = shard_bounds(n_stripes, n_shards)
    else:
        bounds = np.asarray(bounds, dtype=np.int64)
        if (
            len(bounds) != n_shards + 1
            or bounds[0] != 0
            or bounds[-1] != n_stripes
            or np.any(np.diff(bounds) < 0)
        ):
            raise ValueError(
                f"bounds must be monotone over [0, {n_stripes}] with "
                f"{n_shards + 1} entries, got {bounds.tolist()}"
            )
    stripes = rows // k_rows
    shard_of = np.searchsorted(bounds, stripes, side="right") - 1
    return [np.flatnonzero(shard_of == i) for i in range(n_shards)]
