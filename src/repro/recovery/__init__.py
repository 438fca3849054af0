"""Recovery-scheme generation — the paper's core contribution.

* :func:`~repro.recovery.naive.naive_scheme` — degraded row-parity baseline.
* :func:`~repro.recovery.conventional.conventional_scheme` — the
  production-default repair (local-group for locality codes).
* :func:`~repro.recovery.khan.khan_scheme` — minimal total read (FAST'12).
* :func:`~repro.recovery.calgorithm.c_scheme` — C-Algorithm (Sec. III).
* :func:`~repro.recovery.ualgorithm.u_scheme` — U-Algorithm (Sec. IV),
  including the heterogeneous weighted variant (Sec. V-D).
* :func:`~repro.recovery.multifailure.recover_failure` — arbitrary failure
  sets (Sec. V-D) with recoverability checking.
* :class:`~repro.recovery.planner.RecoveryPlanner` — precomputed per-disk
  scheme cache (Sec. II-B: "find the recovery schemes ... ahead of time").
"""

from repro.recovery.calgorithm import c_scheme, c_scheme_for_mask
from repro.recovery.conventional import (
    conventional_scheme,
    conventional_scheme_for_mask,
)
from repro.recovery.degraded_read import (
    build_degraded_plans,
    degraded_read_scheme,
    slice_degraded_plan,
)
from repro.recovery.escalation import escalated_scheme, execute_escalated
from repro.recovery.greedy import greedy_scheme, greedy_scheme_for_mask
from repro.recovery.khan import khan_scheme, khan_scheme_for_mask
from repro.recovery.multifailure import recover_failure
from repro.recovery.naive import naive_scheme, naive_scheme_for_mask
from repro.recovery.plancache import SchemePlanCache, plan_key
from repro.recovery.planner import RecoveryPlanner
from repro.recovery.resilient import (
    ElementUnreadable,
    ResilientExecutor,
    ResilientResult,
)
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.stats import SchemeStats, compare_stats, scheme_stats
from repro.recovery.search import (
    SearchStats,
    conditional_cost,
    generate_scheme,
    khan_cost,
    unconditional_cost,
    weighted_cost,
)
from repro.recovery.ualgorithm import u_scheme, u_scheme_for_mask

ALGORITHMS = {
    "naive": naive_scheme,
    "conventional": conventional_scheme,
    "khan": khan_scheme,
    "c": c_scheme,
    "u": u_scheme,
}


def scheme_for_disk(code, failed_disk: int, algorithm: str = "u", **kwargs):
    """Dispatch by algorithm name
    (``naive``/``conventional``/``khan``/``c``/``u``)."""
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return fn(code, failed_disk, **kwargs)


__all__ = [
    "ALGORITHMS",
    "ElementUnreadable",
    "RecoveryPlanner",
    "RecoveryScheme",
    "ResilientExecutor",
    "ResilientResult",
    "SchemePlanCache",
    "SchemeStats",
    "SearchStats",
    "compare_stats",
    "scheme_stats",
    "build_degraded_plans",
    "c_scheme",
    "c_scheme_for_mask",
    "conventional_scheme",
    "conventional_scheme_for_mask",
    "degraded_read_scheme",
    "escalated_scheme",
    "execute_escalated",
    "greedy_scheme",
    "greedy_scheme_for_mask",
    "slice_degraded_plan",
    "conditional_cost",
    "generate_scheme",
    "khan_cost",
    "khan_scheme",
    "khan_scheme_for_mask",
    "naive_scheme",
    "naive_scheme_for_mask",
    "plan_key",
    "recover_failure",
    "scheme_for_disk",
    "u_scheme",
    "u_scheme_for_mask",
    "unconditional_cost",
    "weighted_cost",
]
