"""Ablation A1 — the search's state budget.

The Khan/C/U searches are exponential in the worst case; an optional
state budget bounds them, completing the best frontier state greedily
and flagging the scheme ``exact=False``.  This bench sweeps the budget
on one large code and records how close the greedy completion lands.
"""

from conftest import emit

from repro.codes import make_code
from repro.equations import get_recovery_equations
from repro.recovery.search import generate_scheme, unconditional_cost


def test_budget_fallback_quality(benchmark, results_dir):
    """State budgets degrade gracefully: the greedy completion stays close
    to the exact optimum (and is flagged inexact)."""
    code = make_code("rdp", 13)
    rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
    exact = benchmark.pedantic(
        generate_scheme,
        args=(rec, unconditional_cost(code.layout), "u"),
        rounds=1,
        iterations=1,
    )
    rows = ["budget sweep, rdp @ 13 disks: exact = "
            f"(max={exact.max_load}, total={exact.total_reads}) "
            f"in {exact.expanded_states} states"]
    for budget in (50, 500, 5000):
        s = generate_scheme(
            rec, unconditional_cost(code.layout), "u", max_expansions=budget
        )
        rows.append(
            f"budget {budget:>6d}: (max={s.max_load}, total={s.total_reads}) "
            f"exact={s.exact}"
        )
        assert s.max_load <= exact.max_load + 3
    emit(results_dir, "ablation_budget", "\n".join(rows))
