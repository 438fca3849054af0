"""Recovery-scheme generation — the paper's core contribution.

* :data:`~repro.recovery.ualgorithm.ALGORITHMS` — the one table from an
  algorithm name to its generator and cost key, behind the one mask-level
  entry :func:`~repro.recovery.ualgorithm.scheme_for_mask` and the one
  disk-level entry :func:`~repro.recovery.ualgorithm.scheme_for_disk`:

  * ``naive`` — degraded row-parity baseline
    (:func:`~repro.recovery.naive.naive_scheme`);
  * ``conventional`` — the production-default repair, local-group for
    locality codes (:func:`~repro.recovery.conventional.conventional_scheme`);
  * ``khan`` — minimal total read, FAST'12 (:func:`khan_scheme`);
  * ``c`` — C-Algorithm, Sec. III (:func:`c_scheme`);
  * ``u`` — U-Algorithm, Sec. IV (:func:`u_scheme`); with ``weights`` the
    heterogeneous variant of Sec. V-D.
* :func:`~repro.recovery.multifailure.recover_failure` — arbitrary failure
  sets (Sec. V-D) with recoverability checking.
* :class:`~repro.recovery.planner.RecoveryPlanner` — precomputed per-disk
  scheme cache (Sec. II-B: "find the recovery schemes ... ahead of time").
"""

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
from repro.recovery.ualgorithm import (
    ALGORITHMS,
    c_scheme,
    khan_scheme,
    scheme_for_disk,
    scheme_for_mask,
    u_scheme,
)

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
    "naive_scheme",
    "naive_scheme_for_mask",
    "plan_key",
    "recover_failure",
    "scheme_for_disk",
    "scheme_for_mask",
    "u_scheme",
    "unconditional_cost",
    "weighted_cost",
]
